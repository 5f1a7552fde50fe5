"""Batch command-line interface emitting machine-readable JSON reports.

Exit status: 0 on pass, 1 on a property failure, 2 on usage or input errors
and on a report that cannot be written, to the --json path or to stdout.
Reports for identical (seed, config, command) triples are byte-identical
apart from the ``timestamp`` field.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import reductions
from .entropy import stack_cross_check, stack_slacks
from .protocols import (
    PROTOCOL_BUILDERS,
    ChannelProtocol,
    INPUT_CLASSICAL,
    ProtocolVerificationError,
    build_named,
    load_protocol,
    protocol_digest,
    require_desk_scale,
    resource_report,
    security_deviations,
    verify_correctness,
)
from .qmath import ALGEBRA_TOL, ENTROPY_TOL, matrix_to_json, random_density_matrix

REPORT_SCHEMA = 5
#: samples per stacked chunk of the inequality sweep: its memory bound
SWEEP_CHUNK = 128


class UsageError(Exception):
    """A refused command line or input; an argv fault carries USAGE as a second arg."""


@dataclass
class RunConfig:
    seed: int = 0
    algebra_tol: float = ALGEBRA_TOL
    entropy_tol: float = ENTROPY_TOL
    samples: int = 500

    def __post_init__(self):
        if not all(0 < tol < math.inf for tol in (self.algebra_tol, self.entropy_tol)):
            raise UsageError("tolerances must be positive and finite")
        if self.samples < 1:
            raise UsageError("--samples must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")


def _load(name_or_path: str, n: int | None, *rules) -> ChannelProtocol:
    """The builder's protocol at ``n`` (1 if None), or the file's, which takes no
    ``n``, once require_desk_scale and then the command's own ``rules`` admit it;
    any refusal is a UsageError."""
    try:
        if name_or_path in PROTOCOL_BUILDERS:
            protocol = build_named(name_or_path, 1 if n is None else n)
        elif n is not None:
            raise UsageError(f"--n sizes builder names only, not the file {name_or_path!r}",
                             USAGE)
        else:
            try:
                protocol = load_protocol(name_or_path)
            except FileNotFoundError as exc:
                raise UsageError(
                    f"{name_or_path!r} is neither a known protocol name nor a file; "
                    f"known names: {sorted(PROTOCOL_BUILDERS)}") from exc
            except OSError as exc:
                raise UsageError(f"cannot read protocol file {name_or_path!r}: {exc}") from exc
            except (ValueError, KeyError, TypeError) as exc:
                raise UsageError(f"malformed protocol file {name_or_path!r}: {exc}") from exc
        for rule in (require_desk_scale, *rules):
            rule(protocol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return protocol


def _base_report(command: str, cfg: RunConfig) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": asdict(cfg),
    }


def _verification_report(command: str, cfg: RunConfig, protocol: ChannelProtocol) -> dict:
    """The report that ``verify`` and ``audit`` share, its ``pass`` whether the
    security and correctness deviations are within ``cfg.algebra_tol``."""
    report = _base_report(command, cfg)
    parts = security_deviations(protocol)
    security, correctness = max(parts.values()), verify_correctness(protocol)
    report.update(security_deviation=security, security_parts=parts,
                  correctness_deviation=correctness,
                  resources=asdict(resource_report(protocol)),
                  protocol={"name": protocol.name, "n": protocol.input_qubits,
                            "hash": protocol_digest(protocol)})
    report["pass"] = security <= cfg.algebra_tol and correctness <= cfg.algebra_tol
    return report


def cmd_verify(cfg: RunConfig, name_or_path: str, n: int | None) -> dict:
    return _verification_report("verify", cfg, _load(name_or_path, n))


def cmd_audit(cfg: RunConfig, name_or_path: str, n: int | None) -> dict:
    protocol = _load(name_or_path, n, reductions.require_lift_scale)
    report = _verification_report("audit", cfg, protocol)
    audits, log = [], []
    if not report["pass"]:
        log.append("verification failed; audit skipped")
    else:
        audit = (reductions.audit_classical_input if protocol.input_kind == INPUT_CLASSICAL
                 else reductions.audit_quantum_input)
        try:
            audits = audit(protocol, verify_tol=cfg.algebra_tol, bound_tol=cfg.entropy_tol,
                           log=log)
        except (ProtocolVerificationError, ValueError) as exc:
            log.append(f"audit aborted: {exc}")
    report["audits"] = [asdict(a) for a in audits]
    report["audit_log"] = log
    report["pass"] = bool(audits) and all(a.satisfied for a in audits)
    return report


def _worst_samples(chunks) -> dict[str, tuple[float, int, np.ndarray]]:
    """Per inequality, the least slack over the stacked 3-qubit chunks, and the
    first sample index and matrix with it."""
    worst: dict[str, tuple[float, int, np.ndarray]] = {}
    start = 0
    for stack in chunks:
        for name, slacks in stack_slacks(stack, [2, 2, 2], (0,), (1,), (2,)).items():
            i = int(np.argmin(slacks))
            if name not in worst or slacks[i] < worst[name][0]:
                worst[name] = (float(slacks[i]), start + i, stack[i].copy())
        start += len(stack)
    return worst


def cmd_inequalities(cfg: RunConfig) -> dict:
    report = _base_report("inequalities", cfg)
    rng = np.random.default_rng(cfg.seed)
    worst = _worst_samples(
        random_density_matrix(8, rng, count=min(SWEEP_CHUNK, cfg.samples - start))
        for start in range(0, cfg.samples, SWEEP_CHUNK))

    cross_samples = min(cfg.samples, 200)
    cross_dev = float(stack_cross_check(random_density_matrix(4, rng, count=cross_samples)).max())

    report["inequalities"] = [
        {**({"max_residual": -slack} if name == "chain_rule" else {"min_slack": slack}),
         "name": name, "witness": {"dims": [2, 2, 2], "matrix": matrix_to_json(matrix)}}
        for name, (slack, _, matrix) in sorted(worst.items())]
    report["cross_check"] = {
        "name": "mutual_info_equals_relative_entropy_to_marginals",
        "samples": cross_samples,
        "max_deviation": cross_dev,
    }
    report["pass"] = (all(slack >= -cfg.entropy_tol for slack, _, _ in worst.values())
                      and cross_dev <= cfg.entropy_tol)
    return report


USAGE = f"""usage: pqclab verify|audit PROTOCOL [--n N] [OPTIONS]
       pqclab inequalities [OPTIONS]
PROTOCOL is a builder name or a protocol descriptor file.  OPTIONS:
  --n N              input size in (qu)bits for builder names (default 1)
  --seed N           seed for the inequality samples (default 0)
  --samples N        sample count for inequality sweeps (default 500)
  --tol-algebra X    tolerance for algebraic identities (default {ALGEBRA_TOL:g})
  --tol-entropy X    tolerance for entropy-valued quantities (default {ENTROPY_TOL:g})
  --json PATH        also write the report to this path
  -h, --help         print this text and exit"""
#: command -> (handler, whether it takes a PROTOCOL and --n)
COMMANDS = {"verify": (cmd_verify, True), "audit": (cmd_audit, True),
            "inequalities": (cmd_inequalities, False)}
#: option -> (RunConfig field or handler argument, type); full names only
OPTIONS = {"--n": ("n", int), "--seed": ("seed", int), "--samples": ("samples", int),
           "--tol-algebra": ("algebra_tol", float), "--tol-entropy": ("entropy_tol", float),
           "--json": ("json", str)}


def parse_args(argv: list[str]):
    """The handler, its arguments and the --json path for ``argv``; None for -h."""
    values, positionals, tokens = {}, [], iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in OPTIONS:
            raise UsageError(f"unknown option {flag!r}", USAGE)
        if not eq and (value := next(tokens, None)) is None:
            raise UsageError(f"{flag} needs a value", USAGE)
        key, kind = OPTIONS[flag]
        try:
            values[key] = kind(value)
        except ValueError:
            raise UsageError(f"{flag}: invalid {kind.__name__} value {value!r}", USAGE) from None
    command, *args = positionals or [""]
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; expected one of {list(COMMANDS)}", USAGE)
    handler, takes_protocol = COMMANDS[command]
    if len(args) != takes_protocol:
        raise UsageError(f"{command} takes {int(takes_protocol)} PROTOCOL, got {args}", USAGE)
    if "n" in values and not takes_protocol:
        raise UsageError(f"{command} takes no --n", USAGE)
    json_path, n = values.pop("json", None), values.pop("n", None)
    return handler, RunConfig(**values), args + [n] if takes_protocol else args, json_path


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` in one pass, with a
    non-finite float written as null, so a degenerate sample still leaves a
    valid report; ``indent`` is the newline and indent of ``value``'s line."""
    if isinstance(value, float):  # the most common value, tested first
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        parts = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if parts else "[]"
    if isinstance(value, dict):
        parts = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, json_path: str | None):
    # the file first, so a report that cannot be written never reaches stdout
    text = _json_text(report)
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report to {json_path!r}: {exc}") from exc
    try:
        print(text, flush=True)
    except OSError as exc:
        # a closed reader: nothing more reaches fd 1, not even the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write report to stdout: {exc}") from exc


def main(argv=None) -> int:
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(USAGE)
            return 0
        handler, cfg, args, json_path = parsed
        report = handler(cfg, *args)
        _emit(report, json_path)
    except UsageError as exc:
        print("error:", "\n".join(exc.args), file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
