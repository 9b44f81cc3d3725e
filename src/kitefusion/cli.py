"""Command line front end: simulate, estimate, evaluate, bode.

All four subcommands read the same flat ``key = value`` configuration
format (``#`` starts a comment).  A key is a field name of
``EncoderGeometry``, ``EstimatorConfig``, ``TrajectoryParams`` or
``NoiseSpec``, parsed by the field's type, or one of ``lambda`` (the
``ratios``; one value broadcasts to all axes), ``speed_bins`` and
``settle``.  Shared keys such as ``r`` feed every dataclass with that
field.  Each value is parsed as the file is read; an unknown key or a
malformed or non-finite value is rejected with its line number.  Missing
keys take the library defaults, so an empty or absent config is valid.

No verb holds a whole record as objects.  ``simulate`` writes the
synthesizer's log table (which has no truth columns for ``--no-truth``)
through the one table writer without making frames.  ``estimate`` and
``evaluate`` take the log a block of 256 lines at a time from the one
reader, and each block is primed and stepped by one function,
:func:`~kitefusion.pipelines._run`, as in ``compare_approaches``:
``estimate`` formats each block's outputs and holds only the formatted
rows, which it writes once the log is done; ``evaluate`` holds the error
columns of the replay.  ``evaluate`` checks the configs,
``speed_bins`` and ``settle`` before it opens the log, and whether the
header has truth or the configs a routing 3 before it reads a row; after
that, in both verbs, the first fault in log order is named, a bad line
or a refused tick.  Either way no output file is written.

``main`` reads the config once and hands it to the verb with the parsed
options.  Exit codes: 0 on success, 2 for domain, input or format
errors (among them an input whose arrays no memory holds), 3 when the
Riccati solve for the filter gain fails to converge; either failure
prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable

import numpy as np

from .errors import (DegenerateInputError, DomainError, LogFormatError, NonConvergenceError,
                     _fields, require_positive)
from .estimator import axis_gain, kf_frequency_response, lo_frequency_response
from .evalio import _log_blocks, _replay, _report_args, _write_table, default_configs
from .lineangle import EncoderGeometry
from .pipelines import EstimationPipeline, EstimatorConfig, _run
from .simkite import NoiseSpec, TrajectoryParams, _record


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(part) for part in text.split(","))


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _config_keys() -> dict[str, Callable[[str], object]]:
    """Every config key and the parser of its value, chosen by field type."""
    parsers = {float: _float, int: int, bool: _bool, tuple: _floats}
    keys = {"lambda": _floats, "speed_bins": _floats, "settle": _float}
    for cls in (EncoderGeometry, EstimatorConfig, TrajectoryParams, NoiseSpec):
        for field in _fields(cls):
            parse = parsers.get(tuple if field.many else field.kind)
            if parse is not None and field.name != "ratios":  # set through ``lambda``
                keys[field.name] = parse
    return keys


CONFIG_KEYS = _config_keys()


def load_config(path: str | None) -> dict[str, object]:
    """Parse a flat config file into typed values by key.

    Raises ``LogFormatError`` naming the file if it is not text, and
    naming the line of an unknown key or a malformed value.
    """
    if path is None:
        return {}
    cfg: dict[str, object] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"{path}: not {exc.encoding} text") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LogFormatError(f"{path} line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise LogFormatError(f"{path} line {lineno}: unknown key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise LogFormatError(
                f"{path} line {lineno}: bad value {value!r} for key {key!r}") from None
    return cfg


def _build(cls, cfg: dict[str, object], **extra):
    """``cls`` from the config keys named after its fields, plus ``extra``."""
    names = {field.name for field in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in cfg.items() if key in names}, **extra)


def build_estimator_config(cfg: dict[str, object]) -> EstimatorConfig:
    extra = {"geometry": _build(EncoderGeometry, cfg)}
    if "lambda" in cfg:
        ratios = cfg["lambda"]
        extra["ratios"] = ratios * 3 if len(ratios) == 1 else ratios
    return _build(EstimatorConfig, cfg, **extra)


def _given(cfg: dict[str, object], **keys: str) -> dict[str, object]:
    """Keyword arguments ``{name: cfg[key]}`` for the keys the file sets."""
    return {name: cfg[key] for name, key in keys.items() if key in cfg}


def _csv_line(row) -> str:
    """One line of floats, each by its ``repr``, with its line break."""
    return ",".join(map(repr, row)) + "\n"


def _write_csv(path, header: str, lines: list[str]) -> None:
    """Write ``header`` and the :func:`_csv_line` ``lines``.  The callers
    format every line before the file is opened, so a row that raises
    leaves no file."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def cmd_simulate(args, cfg: dict[str, object]) -> None:
    if args.seed is not None:
        cfg["seed"] = args.seed
    noise = _build(NoiseSpec, cfg)
    table, empty, _ = _record(_build(TrajectoryParams, cfg), noise, _build(EncoderGeometry, cfg),
                              **_given(cfg, ts="ts"), has_truth=not args.no_truth)
    _write_table(args.out, table, empty, [f"rng: numpy-PCG64 seed={noise.seed}"])


ESTIMATE_HEADER = "t,px,py,pz,vx,vy,vz,theta,phi,gamma,gamma_dot"


def cmd_estimate(args, cfg: dict[str, object]) -> None:
    pipeline = EstimationPipeline(build_estimator_config(cfg))
    lines = []
    for frames, _ in _log_blocks(args.log):
        outputs, = _run([pipeline], frames)
        lines += [_csv_line((out.t, *out.p_hat, *out.v_hat, out.theta_hat, out.phi_hat,
                             out.gamma_hat, out.gamma_dot_hat))
                  for out in filter(None, outputs)]  # None: no estimate this tick
    _write_csv(args.out, ESTIMATE_HEADER, lines)


def cmd_evaluate(args, cfg: dict[str, object]) -> None:
    base = build_estimator_config(cfg)
    if "lambda" in cfg:
        configs = tuple(dataclasses.replace(base, approach=i) for i in (1, 2, 3))
    else:
        configs = default_configs(base)
    checked = _report_args(configs, **_given(cfg, bin_edges="speed_bins", settle="settle"))
    report = _replay(_log_blocks(args.log), *checked)
    with open(args.out, "w") as fh:
        fh.write(report.to_csv())


def cmd_bode(args, cfg: dict[str, object]) -> None:
    estimator = build_estimator_config(cfg)
    require_positive("f-min", args.f_min)
    require_positive("f-max", args.f_max)
    if not args.f_min < args.f_max:
        raise DomainError("need 0 < f-min < f-max")
    if args.points < 1:
        raise DomainError(f"need at least one point, got {args.points}")
    freqs = np.geomspace(args.f_min, args.f_max, args.points)
    gains = axis_gain(estimator.ts, estimator.ratios[args.axis])
    kf_fu, kf_fy = kf_frequency_response(gains, estimator.ts, freqs)
    lo_fy1, lo_fy2 = lo_frequency_response(estimator.k_gamma, estimator.ts, freqs)
    table = np.column_stack((freqs, kf_fu, kf_fy, lo_fy1, lo_fy2)).tolist()
    _write_csv(args.out, "f_hz,kf_fu_mag,kf_fy_mag,lo_fy1_mag,lo_fy2_mag",
               list(map(_csv_line, table)))


def _verb(sub, name: str, func, help: str, out: str, log: bool = False):
    """The subparser of one verb with the options every verb shares:
    ``--config``, ``--out`` (described by ``out``) and, if ``log``, ``--log``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="flat key=value config file")
    if log:
        p.add_argument("--log", required=True, help="input log CSV")
    p.add_argument("--out", required=True, help=out)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitefusion",
        description="Tethered-wing state estimation tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _verb(sub, "simulate", cmd_simulate, "synthesize a flight log", "log CSV to write")
    p.add_argument("--seed", type=int, help="override the noise seed")
    p.add_argument("--no-truth", action="store_true", help="omit the truth columns")
    _verb(sub, "estimate", cmd_estimate, "run one pipeline over a log",
          "estimate CSV to write", log=True)
    _verb(sub, "evaluate", cmd_evaluate, "compare the three routings on a log",
          "report CSV to write", log=True)
    p = _verb(sub, "bode", cmd_bode, "tabulate filter frequency responses",
              "response CSV to write")
    p.add_argument("--f-min", type=float, default=0.01)
    p.add_argument("--f-max", type=float, default=24.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--axis", type=int, default=0, choices=(0, 1, 2))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args, load_config(args.config))
    except (DomainError, DegenerateInputError, LogFormatError, OSError,
            NonConvergenceError, MemoryError) as exc:  # MemoryError: arrays no memory holds
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3 if isinstance(exc, NonConvergenceError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
