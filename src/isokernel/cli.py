"""Command-line interface.

Subcommands: fit-map, transform, train, eval-online, eval-batch, sweep,
inspect. Options may come from a config file of ``key = value`` lines
(``--config``); explicit flags win over the file. Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric error.
"""

import argparse
import dataclasses
import json
import sys

from . import eval as evalmod
from .dataset import load_libsvm, shuffle
from .errors import DataError, IsoKernelError, NumericError
from .eval import ProtocolConfig, run_batch, run_online, sweep
from .featuremap import Mapper, write_features_csv
from .learner import save_checkpoint


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _parse_scalar(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def read_config_file(path):
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected key=value")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key in ("psi", "psi_grid"):  # both spellings of one field
                try:
                    out["psi_grid"] = _int_list(value)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad {key} {value!r}")
            else:
                out[key] = _parse_scalar(value)
    return out


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _add_protocol_flags(sub):
    """One flag per ``ProtocolConfig`` field, whose dest is the field's
    name, and ``--config``."""
    sub.add_argument("--learner", choices=evalmod.LEARNERS)
    sub.add_argument("--eta", type=float)
    sub.add_argument("--t", type=int)
    sub.add_argument("--b", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument(
        "--psi", dest="psi_grid", type=_int_list, metavar="P1[,P2,...]",
        help="psi grid; a single value pins the parameter",
    )
    sub.add_argument("--block-size", type=int)
    sub.add_argument("--folds", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--train-size", type=int)
    sub.add_argument("--cv-max-points", type=int)
    sub.add_argument(
        "--normalize", action=argparse.BooleanOptionalAction, default=None
    )
    sub.add_argument("--config", help="key=value config file; flags win")


def build_protocol_config(args):
    merged = read_config_file(args.config) if args.config else {}
    for field in dataclasses.fields(ProtocolConfig):
        value = getattr(args, field.name)
        if value is not None:
            merged[field.name] = value
    if "learner" not in merged:
        raise UsageError("--learner is required (flag or config file)")
    try:
        return ProtocolConfig(**merged)
    except TypeError as exc:
        raise UsageError(f"bad config key: {exc}") from exc


def build_parser():
    parser = _Parser(prog="isokernel", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("fit-map", help="fit a feature map and save it")
    p.add_argument("--data", required=True)
    p.add_argument("--scheme", choices=("iforest", "anne"), required=True)
    p.add_argument("--psi", type=int, required=True)
    p.add_argument("--t", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = commands.add_parser(
        "transform", help="map a dataset to indexed-feature CSV rows"
    )
    p.add_argument("--map", dest="map_path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = commands.add_parser("train", help="train one model, save a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_protocol_flags(p)

    p = commands.add_parser(
        "eval-online", help="test-then-train protocol over one dataset"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="per-block metrics CSV")
    p.add_argument("--json", dest="json_path", help="JSON summary path")
    _add_protocol_flags(p)

    p = commands.add_parser(
        "eval-batch", help="train on one set, test frozen on another"
    )
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", help="run metrics CSV")
    p.add_argument("--json", dest="json_path", help="JSON summary path")
    _add_protocol_flags(p)

    p = commands.add_parser("sweep", help="repeat eval-batch along one axis")
    p.add_argument("--axis", choices=evalmod.SWEEP_AXES, required=True)
    p.add_argument("--values", type=_int_list, required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", help="sweep metrics CSV")
    p.add_argument("--json", dest="json_path", help="JSON summary path")
    _add_protocol_flags(p)

    p = commands.add_parser("inspect", help="describe a saved feature map")
    p.add_argument("--map", dest="map_path", required=True)

    return parser


def _emit(summary, json_path=None):
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    print(json.dumps(summary))


def _cmd_fit_map(args):
    ds = load_libsvm(args.data)
    mapper = Mapper.fit(ds, args.psi, args.t, args.scheme, args.seed)
    mapper.save(args.out)
    _emit(
        {
            "command": "fit-map",
            "scheme": mapper.scheme,
            "psi": mapper.psi,
            "t": mapper.t,
            "seed": mapper.seed,
            "dim": mapper.dim,
            "points": len(ds),
            "out": args.out,
        }
    )


def _cmd_transform(args):
    mapper = Mapper.load(args.map_path)
    ds = load_libsvm(args.data)
    features = mapper.map_many(ds)
    write_features_csv(args.out, features)
    _emit({"command": "transform", "rows": int(features.shape[0]), "out": args.out})


def _cmd_train(args):
    config = build_protocol_config(args)
    if len(config.psi_grid) != 1:
        raise UsageError("train requires a single --psi value")
    ds = load_libsvm(args.data)
    psi, model, _ = evalmod.select_and_fit(ds, shuffle(ds, config.seed),
                                           config)
    hyper = config.resolved()
    hyper["psi"] = psi
    save_checkpoint(args.out, config.learner, model, hyper)
    _emit(
        {
            "command": "train",
            "learner": config.learner,
            "psi": psi,
            "updates": model.updates,
            "points": len(ds),
            "config": hyper,
            "out": args.out,
        }
    )


def _cmd_eval_online(args):
    config = build_protocol_config(args)
    ds = load_libsvm(args.data)
    metrics = run_online(ds, config)
    if args.out:
        evalmod.write_blocks_csv(args.out, metrics)
    _emit(metrics.to_dict(), args.json_path)


def _cmd_eval_batch(args):
    config = build_protocol_config(args)
    train = load_libsvm(args.train)
    test = load_libsvm(args.test)
    metrics = run_batch(train, test, config)
    if args.out:
        evalmod.write_runs_csv(args.out, [metrics])
    _emit(metrics.to_dict(), args.json_path)


def _cmd_sweep(args):
    config = build_protocol_config(args)
    train = load_libsvm(args.train)
    test = load_libsvm(args.test)
    results = sweep(args.axis, args.values, config, train, test)
    if args.out:
        evalmod.write_runs_csv(args.out, results)
    _emit(
        {
            "command": "sweep",
            "axis": args.axis,
            "values": list(args.values),
            "runs": [m.to_dict() for m in results],
        },
        args.json_path,
    )


def _cmd_inspect(args):
    mapper = Mapper.load(args.map_path)
    counts = mapper.cell_counts()
    _emit(
        {
            "command": "inspect",
            "scheme": mapper.scheme,
            "t": mapper.t,
            "psi": mapper.psi,
            "seed": mapper.seed,
            "dim": mapper.dim,
            "cell_counts": {
                "min": int(min(counts)),
                "max": int(max(counts)),
                "total": int(sum(counts)),
            },
        }
    )


_HANDLERS = {
    "fit-map": _cmd_fit_map,
    "transform": _cmd_transform,
    "train": _cmd_train,
    "eval-online": _cmd_eval_online,
    "eval-batch": _cmd_eval_batch,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _HANDLERS[args.command](args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except IsoKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
