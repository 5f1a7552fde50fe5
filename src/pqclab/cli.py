"""Batch command-line interface emitting machine-readable JSON reports.

Exit status: 0 on pass, 1 on a property failure, 2 on usage or input errors.
Reports for identical (seed, config, command) triples are byte-identical
apart from the ``timestamp`` field.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass

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
    require_lift_scale,
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
        if self.samples < 0:
            raise UsageError("counts must be nonnegative")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")


def _load(name_or_path: str, n: int) -> ChannelProtocol:
    try:
        if name_or_path in PROTOCOL_BUILDERS:
            protocol = build_named(name_or_path, n)
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
        require_desk_scale(protocol)
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


def _verification_block(protocol: ChannelProtocol, cfg: RunConfig) -> tuple[dict, bool]:
    parts = security_deviations(protocol)
    security = max(parts.values())
    correctness = verify_correctness(protocol)
    report = resource_report(protocol)
    passed = security <= cfg.algebra_tol and correctness <= cfg.algebra_tol
    block = {
        "protocol": {"name": protocol.name, "n": protocol.input_qubits,
                     "hash": protocol_digest(protocol)},
        "security_deviation": security,
        "security_parts": parts,
        "correctness_deviation": correctness,
        "resources": asdict(report),
    }
    return block, passed


def cmd_verify(cfg: RunConfig, name_or_path: str, n: int) -> tuple[dict, int]:
    protocol = _load(name_or_path, n)
    report = _base_report("verify", cfg)
    block, passed = _verification_block(protocol, cfg)
    report.update(block)
    report["pass"] = passed
    return report, 0 if passed else 1


def cmd_audit(cfg: RunConfig, name_or_path: str, n: int) -> tuple[dict, int]:
    protocol = _load(name_or_path, n)
    if protocol.input_kind != INPUT_CLASSICAL:
        try:
            require_lift_scale(protocol)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    report = _base_report("audit", cfg)
    block, verified = _verification_block(protocol, cfg)
    report.update(block)
    audits, log = [], []
    if not verified:
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
    report["pass"] = passed = bool(audits) and all(a.satisfied for a in audits)
    return report, 0 if passed else 1


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


def cmd_inequalities(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.samples < 1:
        raise UsageError("--samples must be >= 1")
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
    passed = (all(slack >= -cfg.entropy_tol for slack, _, _ in worst.values())
              and cross_dev <= cfg.entropy_tol)
    report["pass"] = passed
    return report, 0 if passed else 1


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
    json_path, n = values.pop("json", None), values.pop("n", 1)
    return handler, RunConfig(**values), args + [n] if takes_protocol else args, json_path


def _finite(value):
    # keep reports valid JSON even if a degenerate sample produced inf/nan
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _emit(report: dict, json_path: str | None):
    # the file first, so a report that cannot be written never reaches stdout
    text = json.dumps(_finite(report), sort_keys=True, indent=2)
    if json_path is not None:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report to {json_path!r}: {exc}") from exc
    print(text)


def main(argv=None) -> int:
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(USAGE)
            return 0
        handler, cfg, args, json_path = parsed
        report, code = handler(cfg, *args)
        _emit(report, json_path)
    except UsageError as exc:
        print("error:", "\n".join(exc.args), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
