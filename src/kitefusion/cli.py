"""Command line front end: simulate, estimate, evaluate, bode.

All four subcommands read the same flat ``key = value`` configuration
format (``#`` starts a comment).  Keys map one to one onto the dataclass
fields of the library; shared physical quantities such as the tether
length ``r`` appear once and feed every consumer.  Missing keys fall
back to the library defaults, so an empty or absent config is valid.

Exit codes: 0 on success, 2 for domain, input or format errors, 3 when
the Riccati solve for the filter gain fails to converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .errors import DegenerateInputError, DomainError, LogFormatError, NonConvergenceError
from .estimator import KfTuning, kf_frequency_response
from .evalio import compare_approaches, default_configs, read_log, write_log
from .lineangle import EncoderGeometry
from .pipelines import EstimationPipeline, EstimatorConfig, lo_frequency_response
from .simkite import NoiseSpec, TrajectoryParams, synthesize

_FLOAT_KEYS = {
    "r", "phi_g", "ts",
    "guide_rise", "guide_reach", "pivot_height", "pivot_setback",
    "theta0", "phi0", "a_theta", "a_phi", "f_loop", "speed_scale",
    "duration", "theta_phase",
    "accel_density_g", "accel_bias_g", "gyro_density_dps", "gyro_bias_dps",
    "gyro_range_dps", "gps_sigma_xy", "gps_rate", "gps_latency",
    "baro_resolution", "baro_rate", "attitude_rms_deg",
    "settle",
}
_INT_KEYS = {"approach", "encoder_cpr", "seed"}
_LIST_KEYS = {"lambda", "k_gamma", "speed_bins"}
_BOOL_KEYS = {"use_imu"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS | _BOOL_KEYS


def load_config(path: str | None) -> dict[str, str]:
    """Parse a flat config file into raw string values."""
    if path is None:
        return {}
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise LogFormatError(f"{path} line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KNOWN_KEYS:
                raise LogFormatError(f"{path} line {lineno}: unknown key {key!r}")
            raw[key] = value
    return raw


def _get(cfg: dict[str, str], key: str, parse, default):
    if key not in cfg:
        return default
    try:
        return parse(cfg[key])
    except ValueError:
        raise LogFormatError(f"config key {key!r}: bad value {cfg[key]!r}") from None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def build_geometry(cfg: dict[str, str]) -> EncoderGeometry:
    base = EncoderGeometry()
    return EncoderGeometry(
        guide_rise=_get(cfg, "guide_rise", float, base.guide_rise),
        guide_reach=_get(cfg, "guide_reach", float, base.guide_reach),
        pivot_height=_get(cfg, "pivot_height", float, base.pivot_height),
        pivot_setback=_get(cfg, "pivot_setback", float, base.pivot_setback),
    )


def build_estimator_config(cfg: dict[str, str]) -> EstimatorConfig:
    base = EstimatorConfig()
    ratios = base.ratios
    if "lambda" in cfg:
        values = _get(cfg, "lambda", _floats, None)
        if len(values) == 1:
            ratios = values * 3
        elif len(values) == 3:
            ratios = values
        else:
            raise LogFormatError("config key 'lambda': need one or three values")
    k_gamma = _get(cfg, "k_gamma", _floats, base.k_gamma)
    if len(k_gamma) != 2:
        raise LogFormatError("config key 'k_gamma': need two values")
    return EstimatorConfig(
        r=_get(cfg, "r", float, base.r),
        phi_g=_get(cfg, "phi_g", float, base.phi_g),
        ts=_get(cfg, "ts", float, base.ts),
        ratios=ratios,
        k_gamma=tuple(k_gamma),
        geometry=build_geometry(cfg),
        approach=_get(cfg, "approach", int, base.approach),
        use_imu=_get(cfg, "use_imu", _bool, base.use_imu),
    )


def build_trajectory(cfg: dict[str, str]) -> TrajectoryParams:
    base = TrajectoryParams()
    return TrajectoryParams(
        r=_get(cfg, "r", float, base.r),
        theta0=_get(cfg, "theta0", float, base.theta0),
        phi0=_get(cfg, "phi0", float, base.phi0),
        a_theta=_get(cfg, "a_theta", float, base.a_theta),
        a_phi=_get(cfg, "a_phi", float, base.a_phi),
        f_loop=_get(cfg, "f_loop", float, base.f_loop),
        speed_scale=_get(cfg, "speed_scale", float, base.speed_scale),
        duration=_get(cfg, "duration", float, base.duration),
        phi_g=_get(cfg, "phi_g", float, base.phi_g),
        theta_phase=_get(cfg, "theta_phase", float, base.theta_phase),
    )


def build_noise(cfg: dict[str, str]) -> NoiseSpec:
    base = NoiseSpec()
    return NoiseSpec(
        accel_density_g=_get(cfg, "accel_density_g", float, base.accel_density_g),
        accel_bias_g=_get(cfg, "accel_bias_g", float, base.accel_bias_g),
        gyro_density_dps=_get(cfg, "gyro_density_dps", float, base.gyro_density_dps),
        gyro_bias_dps=_get(cfg, "gyro_bias_dps", float, base.gyro_bias_dps),
        gyro_range_dps=_get(cfg, "gyro_range_dps", float, base.gyro_range_dps),
        gps_sigma_xy=_get(cfg, "gps_sigma_xy", float, base.gps_sigma_xy),
        gps_rate=_get(cfg, "gps_rate", float, base.gps_rate),
        gps_latency=_get(cfg, "gps_latency", float, base.gps_latency),
        baro_resolution=_get(cfg, "baro_resolution", float, base.baro_resolution),
        baro_rate=_get(cfg, "baro_rate", float, base.baro_rate),
        attitude_rms_deg=_get(cfg, "attitude_rms_deg", float, base.attitude_rms_deg),
        encoder_cpr=_get(cfg, "encoder_cpr", int, base.encoder_cpr),
        seed=_get(cfg, "seed", int, base.seed),
    )


def cmd_simulate(args) -> None:
    cfg = load_config(args.config)
    noise = build_noise(cfg)
    if args.seed is not None:
        noise = dataclasses.replace(noise, seed=args.seed)
    frames, truth = synthesize(build_trajectory(cfg), noise,
                               build_geometry(cfg), ts=_get(cfg, "ts", float, 0.02))
    write_log(frames, args.out,
              truth=None if args.no_truth else truth,
              meta=[f"rng: numpy-PCG64 seed={noise.seed}"])


ESTIMATE_HEADER = "t,px,py,pz,vx,vy,vz,theta,phi,gamma,gamma_dot"


def cmd_estimate(args) -> None:
    cfg = load_config(args.config)
    pipeline = EstimationPipeline(build_estimator_config(cfg))
    log = read_log(args.log)
    lines = [ESTIMATE_HEADER]
    for frame in log.frames:
        out = pipeline.step(frame)
        if out is None:
            continue
        cells = [repr(out.t)]
        cells += [repr(float(v)) for v in out.p_hat]
        cells += [repr(float(v)) for v in out.v_hat]
        cells += [repr(out.theta_hat), repr(out.phi_hat),
                  repr(out.gamma_hat), repr(out.gamma_dot_hat)]
        lines.append(",".join(cells))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_evaluate(args) -> None:
    cfg = load_config(args.config)
    base = build_estimator_config(cfg)
    if "lambda" in cfg:
        configs = tuple(dataclasses.replace(base, approach=i) for i in (1, 2, 3))
    else:
        configs = default_configs(base)
    report = compare_approaches(
        read_log(args.log), configs,
        bin_edges=_get(cfg, "speed_bins", _floats, (2.0, 3.0, 4.0)),
        settle=_get(cfg, "settle", float, 2.0))
    with open(args.out, "w") as fh:
        fh.write(report.to_csv())


def cmd_bode(args) -> None:
    cfg = load_config(args.config)
    estimator = build_estimator_config(cfg)
    if not 0.0 < args.f_min < args.f_max:
        raise DomainError("need 0 < f-min < f-max")
    freqs = np.geomspace(args.f_min, args.f_max, args.points)
    kf_fu, kf_fy = kf_frequency_response(
        KfTuning(estimator.ts, estimator.ratios), args.axis, freqs)
    lo_fy1, lo_fy2 = lo_frequency_response(estimator.k_gamma, estimator.ts, freqs)
    lines = ["f_hz,kf_fu_mag,kf_fy_mag,lo_fy1_mag,lo_fy2_mag"]
    for row in zip(freqs, kf_fu, kf_fy, lo_fy1, lo_fy2):
        lines.append(",".join(repr(float(v)) for v in row))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitefusion",
        description="Tethered-wing state estimation tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a flight log")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="log CSV to write")
    p.add_argument("--seed", type=int, help="override the noise seed")
    p.add_argument("--no-truth", action="store_true",
                   help="omit the truth columns")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run one pipeline over a log")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--log", required=True, help="input log CSV")
    p.add_argument("--out", required=True, help="estimate CSV to write")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="compare the three routings on a log")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--log", required=True, help="input log CSV")
    p.add_argument("--out", required=True, help="report CSV to write")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bode", help="tabulate filter frequency responses")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="response CSV to write")
    p.add_argument("--f-min", type=float, default=0.01)
    p.add_argument("--f-max", type=float, default=24.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--axis", type=int, default=0, choices=(0, 1, 2))
    p.set_defaults(func=cmd_bode)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (DomainError, DegenerateInputError, LogFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
