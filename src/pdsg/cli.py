"""Command-line interface: generate, solve, compare, validate-schedule, scenario-size.

Configuration can come from a plain ``key = value`` text file
(``--config FILE`` or ``--config=FILE``) holding options of the chosen
subcommand, with command-line flags taking precedence.  Exit codes:
0 success, 2 usage or configuration error (an impossible size included),
3 divergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from . import bench, problems, solver
from .errors import CapacityError, ConfigError, DivergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _parse_seeds(text):
    try:
        return tuple(int(s) for s in str(text).split(",") if s != "")
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}") from exc


def read_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment; keys use underscores."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _add_instance_args(p):
    p.add_argument("--family", choices=("qcqp", "scenario_lp"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--second-stage-dim", type=int)
    p.add_argument("--seed", type=int, help="instance generation seed")
    p.add_argument("--instance", help="read the instance from this file")


def _add_run_args(p):
    p.add_argument("--schedule", choices=solver.SCHEDULE_KINDS,
                   help="pdsg step schedule (needs a pdsg run)")
    p.add_argument("--alpha", type=float, help="pdsg step alpha (needs a pdsg run)")
    p.add_argument("--rho", type=float, help="pdsg step rho (needs a pdsg run)")
    p.add_argument("--mu", type=float, help="override certified modulus (needs a pdsg run)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--cadence", type=float, help="epochs between measurements")
    p.add_argument("--seeds", help="comma-separated run seeds")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--csv", default="runs.csv", help="CSV file name")
    p.add_argument("--force", action="store_true", help="run despite schedule validation failure")
    p.add_argument("--ref-tol", type=float)
    p.add_argument("--zmax", type=float, help="mirror-prox dual box level (needs a mirror_prox run)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsg",
        description="Constrained stochastic optimization benchmark harness.",
    )
    # main takes --config out of argv before parsing; it is listed for --help
    parser.add_argument("--config", default=None, help="key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an instance file and print constants")
    _add_instance_args(g)
    g.add_argument("--out", required=True, help="instance file to write")

    s = sub.add_parser("solve", help="run one method and write a CSV record")
    _add_instance_args(s)
    s.add_argument("--method", choices=bench.METHODS, default="pdsg")
    _add_run_args(s)

    c = sub.add_parser("compare", help="run several methods on shared seeds")
    _add_instance_args(c)
    c.add_argument("--methods", default="pdsg,mirror_prox", help="comma-separated methods")
    _add_run_args(c)

    v = sub.add_parser("validate-schedule", help="check step-size conditions")
    v.add_argument("--schedule", choices=solver.SCHEDULE_KINDS, required=True)
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--rho", type=float, required=True)
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--G", type=float, required=True)
    v.add_argument("--mu", type=float, default=0.0)
    v.add_argument("--K", type=int, default=100_000)

    z = sub.add_parser("scenario-size", help="sample counts for scenario approximation")
    z.add_argument("--n", type=int, required=True)
    z.add_argument("--tau", type=float, required=True)
    z.add_argument("--eps", type=float, required=True)
    z.add_argument("--p", type=int, default=0)

    return parser


# options whose ExperimentConfig field has another name
_FIELDS = {"seed": "instance_seed", "instance": "instance_file", "zmax": "mp_zmax"}
# the instance options that configure nothing with an instance file, or in a family
_IDLE = {
    "instance": ("family", "n", "p", "N", "m", "second_stage_dim", "seed"),
    "qcqp": ("second_stage_dim",),
    "scenario_lp": ("p", "N"),
}


def _config(args, **fixed) -> bench.ExperimentConfig:
    """The ``ExperimentConfig`` of the options given, with ``fixed`` on top.

    An option not given is None and leaves its field at the default.  An
    instance option that configures nothing is refused.
    """
    options = {k: v for k, v in vars(args).items() if v is not None}
    family = options.get("family", bench.ExperimentConfig.family)
    source = "instance" if "instance" in options else family
    idle = [f"--{k.replace('_', '-')}" for k in _IDLE[source] if k in options]
    if idle:
        why = ("the instance is read from --instance" if source == "instance"
               else f"the {source} family takes no such size")
        raise ConfigError(f"{', '.join(idle)}: {why}; an option that configures nothing "
                          "is refused")
    names = {f.name for f in dataclasses.fields(bench.ExperimentConfig)}
    given = {_FIELDS.get(k, k): v for k, v in options.items()}
    given = {k: v for k, v in given.items() if k in names}
    if "seeds" in given:
        given["seeds"] = _parse_seeds(given["seeds"])
    return bench.ExperimentConfig(**{**given, **fixed})


def cmd_generate(args) -> int:
    inst = bench.build_instance(_config(args))
    problems.save_instance(inst, args.out)
    consts = problems.certify_constants(inst)
    print(f"wrote {args.out}")
    print(f"n={inst.n} p={inst.p} N={inst.N} m={inst.m}")
    print(f"F={consts.F:.6g} G={consts.G:.6g} "
          f"sigma={consts.sigma:.6g} (empirical) mu={consts.mu:.6g}")
    return EXIT_OK


def _run_and_write(args, methods) -> int:
    pdsg_only = [f"--{k}" for k in ("schedule", "alpha", "rho", "mu")
                 if getattr(args, k) is not None]
    if "pdsg" not in methods and pdsg_only:
        raise ConfigError(f"{', '.join(pdsg_only)}: pdsg's schedule and steps, "
                          "and no pdsg run is asked for")
    if "mirror_prox" not in methods and args.zmax is not None:
        raise ConfigError("--zmax sets mirror-prox's dual box, and no mirror_prox run is asked for")
    cfg = _config(args, methods=methods)
    # an --out that cannot be a directory, or a --csv whose directory is
    # missing, fails here, before the experiment
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.csv)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, "no directory for the CSV", path)
    records, ref, _ = bench.run_experiment(cfg)
    bench.write_csv(records, path)
    print(f"wrote {path}")
    if not ref.converged:
        print("warning: reference solve did not reach tolerance", file=sys.stderr)
    if len(methods) > 1:
        print(bench.summary_text(bench.summarize(records)))
    if any(rec.meta.get("diverged") for rec in records):
        print("divergence detected; CSV holds partial data", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_solve(args) -> int:
    return _run_and_write(args, (args.method,))


def cmd_compare(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if len(set(methods)) < 2:
        raise ConfigError("compare needs at least two distinct methods")
    return _run_and_write(args, methods)


def cmd_validate_schedule(args) -> int:
    sched = solver.ParamSchedule(args.schedule, args.alpha, args.rho, K=args.K, mu=args.mu)
    report = solver.validate_schedule(sched, args.m, args.G, args.K)
    print(f"schedule {args.schedule}: {'VALID' if report.ok else 'INVALID'}")
    print(report)
    return EXIT_OK


def cmd_scenario_size(args) -> int:
    discarding = problems.scenario_count_discarding(args.n, args.tau, args.eps, args.p)
    robust = problems.scenario_count_robust(args.n, args.tau, args.eps)
    print(f"discarding (p={args.p}): N >= {discarding}")
    print(f"robust sampling:        m >= {robust}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "compare": cmd_compare,
    "validate-schedule": cmd_validate_schedule,
    "scenario-size": cmd_scenario_size,
}


def _splice_config(argv):
    """Take ``--config FILE`` out of argv and put the file's values in as flags.

    Each ``key = value`` line becomes ``--key=value`` right after the
    subcommand, so flags given on the command line, which come later, win.
    ``true`` gives a bare ``--key`` and ``false`` gives nothing.  Returns the
    new argv and the file's values.
    """
    pre = argparse.ArgumentParser(prog="pdsg", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return rest, {}
    values = read_config_file(known.config)
    flags = []
    for key, val in values.items():
        flag = "--" + key.replace("_", "-")
        if val.lower() == "true":
            flags.append(flag)
        elif val.lower() != "false":
            flags.append(f"{flag}={val}")
    return rest[:1] + flags + rest[1:], values


def main(argv=None) -> int:
    try:
        argv, from_file = _splice_config(list(sys.argv[1:] if argv is None else argv))
        args = build_parser().parse_args(argv)
        parsed = vars(args)
        for key, val in from_file.items():
            # argparse also takes an abbreviated flag, and false adds no flag at all
            if key not in parsed or (val.lower() == "false" and not isinstance(parsed[key], bool)):
                raise ConfigError(f"config key {key!r} is not a {args.command} option")
        return _COMMANDS[args.command](args)
    except (ValueError, CapacityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
