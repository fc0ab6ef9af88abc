"""Command line driver for synthetic runs and experiment sweeps.

Every command writes into --out: metrics.csv (shared row schema), a
manifest.txt holding the fully resolved configuration, and timings.csv with
wall-clock rows. Values come from flags first, then an optional --config
key=value file, then built-in defaults; the manifest records the resolved
result, and `fedpca replay manifest.txt --out DIR` re-runs it. Replayed
runs reproduce metrics.csv and matrix.csv byte for byte (timings.csv is
wall-clock and excluded from that promise).

Exit codes: 0 success, 2 configuration error (sizes too large to allocate
included), 3 data or file error, 4 the privacy budget cannot be met at the
configured batch width.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, _blas
from .datasets import (
    DataError,
    load_csv,
    partition_columns,
    save_matrix_csv,
    synth,
    synth_gaussian_cov,
    unit_ball_factor,
)
from .edge import EdgeClient, EnergyBounds, energy_ratio
from .federation import FederationConfig, build_tree, depth_error_probe, run_federation
from .linalg import _fix_signs, truncated_svd
from .metrics import MetricLog, projection_error, qa_overlap
from .privacy import (
    DpConfig,
    PrivacyInfeasibleError,
    derive_rng,
    omega_symmetric_sulq,
    symmetric_gaussian_mask,
)

EPSILON_FLOOR = 1e-3


class ConfigError(ValueError):
    """Bad or missing configuration values."""


# ---------------------------------------------------------------------------
# parameters: one row each drives the parser, config files and manifests

def _cast_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_list(text: str, cast: Callable) -> list:
    try:
        vals = [cast(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated {cast.__name__} values, got {text!r}") from None
    if not vals:
        raise ConfigError("empty list parameter")
    return vals


class Param(NamedTuple):
    """One parameter; ``name`` is its config and manifest key."""

    name: str
    cast: Callable = str
    default: object = None
    help: str = ""
    choices: Optional[tuple] = None
    flag: Optional[str] = None  # when it is not --name-with-dashes


PARAMS = {row.name: row for row in (
    Param("seed", int, 0, "root seed"),
    Param("data", help="CSV matrix to load instead of synthesizing"),
    Param("orientation", default="columns", help="how --data lays out samples",
          choices=("columns", "rows")),
    Param("normalize", default="none", help="scale the columns into the unit ball",
          choices=("none", "unit-ball")),
    Param("d", int, help="rows of the synthetic matrix"),
    Param("n", int, help="columns of the synthetic matrix"),
    Param("alpha", float, 1.0, "spectrum decay exponent"),
    Param("generator", default="svd", help="synthetic generator", choices=("svd", "gauss")),
    Param("rank", int, 10, "target rank"),
    Param("batch", int, 50, "batch width"),
    Param("forgetting", float, 1.0, "forgetting factor in (0, 1]", flag="--lambda"),
    Param("adaptive", _cast_bool, False, "enable energy-based rank adaptation"),
    Param("energy_alpha", float, 0.01, "lower edge of the energy band"),
    Param("energy_beta", float, 0.10, "upper edge of the energy band"),
    Param("max_rank", int, help="rank cap under --adaptive"),
    Param("cov_block", int, help="covariance slab width (default min(d, 64))"),
    Param("epsilon", float, 0.1, "privacy budget epsilon"),
    Param("delta", float, 0.1, "privacy budget delta"),
    Param("no_dp", _cast_bool, False, "disable the privacy mask"),
    Param("omega_floor", float, help="reject batches whose noise scale would exceed this"),
    Param("rescale_private", _cast_bool, False, "rescale private values to the data scale"),
    Param("leaves", int, 4, "number of clients"),
    Param("fanout", int, 2, "aggregation arity"),
    Param("policy", default="contiguous", help="column partition policy",
          choices=("contiguous", "round_robin", "seeded_shuffle")),
    Param("alphas", default="0.01,1.0", help="comma-separated decay exponents"),
    Param("epsilons", default="0.1,0.5,1.0,2.0,4.0", help="comma-separated epsilon grid"),
    Param("reps", int, 20, "repetitions per decay exponent"),
    Param("depths", default="1,2,3", help="comma-separated tree depths"),
)}

_DATA = ("data", "orientation", "normalize", "d", "n", "alpha", "generator")
_EDGE = ("rank", "batch", "forgetting", "adaptive", "energy_alpha", "energy_beta",
         "max_rank", "cov_block", "epsilon", "delta", "no_dp", "omega_floor",
         "rescale_private")

# Keys that older manifests of a command carry but nothing reads any more. A
# config file or manifest may hold them; they are written back verbatim, so a
# replay keeps its run_id.
RETIRED = {"run-federated": ("schedule", "schedule_seed", "threads")}


def _stringify(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_key_values(path) -> dict[str, str]:
    """Parse a flat key=value file; '#' lines are comments, a repeated key fails."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}: key {key!r} is set on line {first_line[key]} "
                              f"and again on line {line_no}")
        first_line[key] = line_no
        out[key] = raw.strip()
    return out


def _default(command: str, name: str):
    return COMMANDS[command].defaults.get(name, PARAMS[name].default)


def resolve_params(command: str, flags, config: dict[str, str]) -> dict:
    """Flags beat config values beat defaults; unknown keys and bad choices fail."""
    names = COMMANDS[command].params
    retired = RETIRED.get(command, ())
    unknown = set(config) - set(names) - set(retired) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    params = {key: config[key] for key in retired if key in config}
    for name in names:
        row = PARAMS[name]
        value = getattr(flags, name, None)
        if value is None and config.get(name, "") != "":
            value = row.cast(config[name])
        if value is None:
            value = _default(command, name)
        elif row.choices is not None and value not in row.choices:
            raise ConfigError(f"{name} must be one of {', '.join(row.choices)}, got {value!r}")
        params[name] = value
    return params


def _run_identifier(command: str, params: dict) -> str:
    blob = command + "".join(
        f"|{key}={_stringify(params[key])}" for key in sorted(params)
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _write_manifest(path: Path, command: str, params: dict, meta: list[str]) -> None:
    lines = [
        f"# fedpca {__version__}",
        f"# created {datetime.now(timezone.utc).isoformat()}",
    ]
    lines.extend(f"# {entry}" for entry in meta)
    lines.append(f"command={command}")
    lines.extend(f"{key}={_stringify(params[key])}" for key in sorted(params))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# shared pieces

def _acquire_data(params: dict, meta: list[str]) -> np.ndarray:
    """Load --data or generate the configured synthetic matrix."""
    if params.get("data"):
        x = load_csv(params["data"], orientation=params["orientation"])
    else:
        if params.get("d") is None or params.get("n") is None:
            raise ConfigError("need --data or both --d and --n")
        # per call, not from an import-time table the benchmark's tracer cannot wrap
        generate = synth if params["generator"] == "svd" else synth_gaussian_cov
        x = generate(params["d"], params["n"], params["alpha"], params["seed"])
    if params.get("normalize", "none") == "unit-ball":
        factor = unit_ball_factor(x)  # x is ours: divide it in place, not into a copy
        x /= factor
        meta.append(f"unit_ball_scale={factor!r}")
    return x


def _client_config(params: dict, x: np.ndarray) -> FederationConfig:
    """The client settings shared by edge and federated runs."""
    d, n = x.shape
    energy = (EnergyBounds(params["energy_alpha"], params["energy_beta"], params["max_rank"])
              if params["adaptive"] else None)
    dp = None if params["no_dp"] else DpConfig(params["epsilon"], params["delta"],
                                               params["omega_floor"])
    # the unit-ball divisor (_acquire_data) leaves no column norm above 1
    if dp is not None and params.get("normalize", "none") == "none":
        norms = np.sqrt(np.einsum("ij,ij->j", x, x))
        outside = int(np.sum(norms > 1.0))
        if outside:
            warnings.warn(
                f"dp enabled but {outside} of {n} columns lie outside "
                f"the unit ball (largest norm {float(np.max(norms)):.6g}); the "
                "budget assumes every column norm <= 1"
            )
    return FederationConfig(
        rank=min(params["rank"], d),
        batch_size=params["batch"],
        energy=energy,
        dp=dp,
        cov_block_width=params["cov_block"],
        forgetting=params["forgetting"],
        rescale_private=params["rescale_private"],
        seed=params["seed"],
    )


def _log_edge_rows(log: MetricLog, timing: MetricLog, x: np.ndarray, client: EdgeClient) -> None:
    n, batch = x.shape[1], client.batch_size
    for block, lo in enumerate(range(0, n, batch)):
        hi = min(lo + batch, n)
        t_block = time.perf_counter()
        client.process_batch(x[:, lo:hi])
        timing.add("runtime_s", time.perf_counter() - t_block, t=block)
        est = client.estimate
        log.add("rank", est.rank, t=block)
        err = projection_error(x[:, :hi], est.basis)
        log.add("reconstruction_error", err, t=block)
        if err > 0:
            log.add("log_reconstruction_error", math.log(err), t=block)
        if est.rank and est.values[0] > 0:
            log.add("energy_ratio", energy_ratio(est.values), t=block)
        if client.last_omega is not None:
            log.add("noise_omega", client.last_omega, t=block)
            log.add("batch_width", hi - lo, t=block)
    for i, value in enumerate(client.estimate.values):
        log.add("global_value", value, t=i)


# ---------------------------------------------------------------------------
# commands

def cmd_synth(params: dict, out_dir: Path, log: MetricLog, timing: MetricLog) -> list[str]:
    if params["d"] is None or params["n"] is None:
        raise ConfigError("synth needs --d and --n")
    meta: list[str] = []
    x = _acquire_data(params, meta)
    save_matrix_csv(out_dir / "matrix.csv", x)
    meta.append(f"matrix shape {x.shape[0]}x{x.shape[1]}")
    return meta


def cmd_run_edge(params: dict, out_dir: Path, log: MetricLog, timing: MetricLog) -> list[str]:
    meta: list[str] = []
    x = _acquire_data(params, meta)
    client = _client_config(params, x).client(x.shape[0])
    _log_edge_rows(log, timing, x, client)
    meta.append(f"blocks={client.blocks_seen}")
    return meta


def cmd_run_federated(params: dict, out_dir: Path, log: MetricLog, timing: MetricLog) -> list[str]:
    meta: list[str] = []
    x = _acquire_data(params, meta)
    cfg = _client_config(params, x)
    leaves = params["leaves"]
    partition = partition_columns(x.shape[1], leaves, params["policy"], params["seed"])
    streams = partition.split(x)
    tree = build_tree(leaves, params["fanout"])
    # one leaf task per CPU the process may run on; no worker count changes a value
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    result = run_federation(streams, tree, cfg, workers)
    for i, value in enumerate(result.estimate.values):
        log.add("global_value", value, t=i)
    # a tree takes leaves - 1 merges, empty leaves included
    log.add("merge_count", leaves - 1)
    for level, ranks in enumerate(result.per_level_ranks):
        for node_idx, r in enumerate(ranks):
            log.add("level_rank", r, t=level, node=node_idx)

    counts = ",".join(str(math.ceil(len(a) / params["batch"])) for a in partition.assignments)
    meta.append(f"client_batches={counts}")
    meta.append(f"tree depth={tree.depth} merges={leaves - 1}")
    return meta


def _sweep_estimators(
    x: np.ndarray,
    rank: int,
    cov_block: Optional[int],
    dp: Optional[DpConfig],
    rngs: tuple[np.random.Generator, np.random.Generator, np.random.Generator],
) -> dict[str, np.ndarray]:
    """Leading-direction estimates for the three private estimators.

    fpca_mask and stream_direct are one EdgeClient folding x as one batch,
    its masked covariance in --cov-block slabs and in one d-wide slab; without
    dp both are the plain fold. sulq_symmetric masks the covariance once.
    """
    d, n = x.shape
    omega_sym = omega_symmetric_sulq(dp, d, n) if dp is not None else 0.0
    estimates = {}
    for method, width, rng in zip(("fpca_mask", "stream_direct"), (cov_block, d), rngs):
        client = EdgeClient(d, rank, batch_size=n, dp=dp, cov_block_width=width, rng=rng)
        client.process_batch(x)
        estimates[method] = client.estimate.basis[:, 0]

    cov = (x @ x.T) / n + symmetric_gaussian_mask(d, omega_sym, rngs[2])
    v_sym = np.linalg.eigh(cov)[1][:, -1:]
    _fix_signs(v_sym)  # truncated_svd's sign convention
    estimates["sulq_symmetric"] = v_sym[:, 0]
    return estimates


def cmd_utility_sweep(params: dict, out_dir: Path, log: MetricLog, timing: MetricLog) -> list[str]:
    meta: list[str] = []
    d, n = params["d"], params["n"]
    alphas = _parse_list(params["alphas"], float)
    epsilons = _parse_list(params["epsilons"], float)
    reps = params["reps"]
    if reps < 1:
        raise ConfigError("reps must be positive")
    rank = min(params["rank"], d)
    clipped = sorted({e for e in epsilons if e < EPSILON_FLOOR})
    if clipped:
        warnings.warn(f"epsilon values {clipped} clipped to {EPSILON_FLOOR}")

    for ai, alpha in enumerate(alphas):
        for rep in range(reps):
            data_seed = int(
                np.random.SeedSequence(
                    params["seed"], spawn_key=(ai, rep)
                ).generate_state(1)[0]
            )
            x = synth(d, n, alpha, data_seed)
            x = x / np.sqrt(np.einsum("ij,ij->j", x, x))  # every sample on the unit sphere
            x /= unit_ball_factor(x)  # rounding leaves some norms an ulp above 1
            v_true = truncated_svd(x, 1).basis[:, 0]
            for ei, eps_raw in enumerate(epsilons):
                eps_eff = max(eps_raw, EPSILON_FLOOR)
                dp = None if params["no_dp"] else DpConfig(eps_eff, params["delta"])
                rngs = tuple(
                    derive_rng(params["seed"], ai, rep, ei, which) for which in range(3)
                )
                estimates = _sweep_estimators(x, rank, params["cov_block"], dp, rngs)
                for method, v_hat in estimates.items():
                    tags = {
                        "alpha": alpha,
                        "epsilon": eps_raw,
                        "eps_effective": eps_eff,
                        "method": method,
                        "rep": rep,
                    }
                    log.add("qa_signed", qa_overlap(v_true, v_hat, signed=True), **tags)
                    log.add("qa_abs", qa_overlap(v_true, v_hat), **tags)
    return meta


def cmd_depth_probe(params: dict, out_dir: Path, log: MetricLog, timing: MetricLog) -> list[str]:
    """Measured tree error and its bound at each depth.

    within_bound allows 8 d eps ||Y||_F of rounding, d the row count. Each
    dense kernel in the tree and the alignment is backward stable, off by a
    small multiple of d eps times the norm it reduces, at most ||Y||_F; the
    bound's tail norm comes from one dense SVD of Y, so by Mirsky's theorem
    it is off by no more. Exact trees (r = d, bound 0) at d = 2 to 200
    measured up to 4.1 d eps ||Y||_F.
    """
    meta: list[str] = []
    x = _acquire_data(params, meta)
    d = x.shape[0]
    rank = min(params["rank"], d)
    slack = 8.0 * d * np.finfo(np.float64).eps * float(np.linalg.norm(x))
    depths = _parse_list(params["depths"], int)
    pairs = depth_error_probe(x, params["fanout"], depths, rank)
    for depth, (measured, bound) in zip(depths, pairs):
        tags = {"fanout": params["fanout"], "rank": rank}
        log.add("measured_error", measured, t=depth, **tags)
        log.add("error_bound", bound, t=depth, **tags)
        log.add("within_bound", float(measured <= bound + slack), t=depth, **tags)
    return meta


class Command(NamedTuple):
    run: Callable
    help: str
    params: tuple[str, ...]
    defaults: dict = {}  # where they differ from PARAMS; never mutated


COMMANDS = {
    "synth": Command(cmd_synth, "write a synthetic matrix as CSV",
                     ("seed", "d", "n", "alpha", "generator")),
    "run-edge": Command(cmd_run_edge, "stream one client over a matrix", ("seed", *_DATA, *_EDGE)),
    "run-federated": Command(
        cmd_run_federated, "stream M clients and aggregate",
        ("seed", *_DATA, *_EDGE, "leaves", "fanout", "policy"),
    ),
    "utility-sweep": Command(
        cmd_utility_sweep, "leading-direction overlap vs epsilon",
        ("seed", "d", "n", "alphas", "epsilons", "reps", "rank", "cov_block", "delta", "no_dp"),
        {"d": 20, "n": 5000},
    ),
    "depth-probe": Command(cmd_depth_probe, "tree-depth error against its bound",
                           ("seed", *_DATA, "fanout", "depths", "rank"),
                           {"d": 32, "n": 256, "rank": 8}),
}


def _execute(command: str, params: dict, out_dir: Path) -> None:
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = _run_identifier(command, params)
    log = MetricLog(run_id)
    timing = MetricLog(run_id)
    started = time.perf_counter()
    # one BLAS thread throughout, so that no output depends on the thread count
    with _blas.single_thread(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            meta = COMMANDS[command].run(params, out_dir, log, timing) + [_blas.describe()]
        except BaseException:
            # a failed run leaves no empty --out behind; files it wrote stay
            if created and not any(out_dir.iterdir()):
                out_dir.rmdir()
            raise
    timing.add("runtime_s", time.perf_counter() - started)
    # the command's own checks and the library's (one per client that trips
    # them) arrive as UserWarnings; each distinct message is reported once
    reported = list(dict.fromkeys(
        f"warning: {w.message}" for w in caught if issubclass(w.category, UserWarning)
    ))
    meta.extend(reported)
    for w in caught:  # any other category is shown as Python would have shown it
        if not issubclass(w.category, UserWarning):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if log.rows():
        log.write_csv(out_dir / "metrics.csv")
    timing.write_csv(out_dir / "timings.csv")
    _write_manifest(out_dir / "manifest.txt", command, params, meta)
    for entry in reported:
        print(f"fedpca {entry}", file=sys.stderr)
    print(f"{command}: wrote {out_dir} (run {run_id})")


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedpca",
        description="Streaming federated PCA experiments.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  fedpca synth --d 4 --n 8 --alpha 1 --seed 1 --out runs/synth\n"
            "  fedpca run-edge --data runs/synth/matrix.csv --rank 2 --no-dp --out runs/edge\n"
            "  fedpca run-federated --d 16 --n 256 --leaves 4 --rank 16 --no-dp --out runs/fed\n"
            "  fedpca utility-sweep --delta 0.05 --reps 5 --out runs/sweep\n"
            "  fedpca replay runs/fed/manifest.txt --out runs/fed-replay\n"
        ),
    )
    parser.add_argument("--version", action="version", version=f"fedpca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag defaults to None so that resolve_params can tell it was not given
    for command, spec in COMMANDS.items():
        sp = sub.add_parser(command, help=spec.help)
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--config", default=None, help="key=value config file")
        for name in spec.params:
            row = PARAMS[name]
            flag = row.flag or "--" + name.replace("_", "-")
            default = _default(command, name)
            shown = row.help
            if default is not None and default is not False:
                shown += f" (default {_stringify(default)})"
            kind = (dict(action="store_const", const=True) if row.cast is _cast_bool
                    else dict(type=row.cast, choices=row.choices))
            sp.add_argument(flag, dest=name, default=None, help=shown, **kind)

    sp = sub.add_parser("replay", help="re-run a command from its manifest")
    sp.add_argument("manifest", help="manifest.txt of a previous run")
    sp.add_argument("--out", required=True, help="output directory for the replay")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            config = load_key_values(args.manifest)
            command, flags = config.get("command"), argparse.Namespace()
            if command not in COMMANDS:
                raise ConfigError(f"manifest has no known command ({command!r})")
        else:
            command, flags = args.command, args
            config = load_key_values(args.config) if args.config else {}
        _execute(command, resolve_params(command, flags, config), Path(args.out))
    except PrivacyInfeasibleError as exc:
        print(f"fedpca: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"fedpca: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and CalibrationError among them
        print(f"fedpca: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. --leaves 2**63 - 1, whose shares no list can hold
        detail = f" ({exc})" if str(exc) else ""
        print(f"fedpca: the configured sizes do not fit in memory{detail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
