"""Command line driver for synthetic runs and experiment sweeps.

Every command writes into --out: metrics.csv (shared row schema), a
manifest.txt holding the fully resolved configuration, and timings.csv with
wall-clock rows. Values come from flags first, then an optional --config
key=value file, then built-in defaults; the manifest records the resolved
result, and `fedpca replay manifest.txt --out DIR` re-runs it. Replayed
runs reproduce metrics.csv and matrix.csv byte for byte (timings.csv is
wall-clock and excluded from that promise).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 the privacy
budget cannot be met at the configured batch width.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, _blas
from .datasets import (
    DataError,
    SynthSpec,
    load_csv,
    normalize_unit_ball,
    partition_columns,
    save_matrix_csv,
    synth,
    synth_gaussian_cov,
)
from .edge import EdgeClient, EnergyBounds, energy_ratio
from .federation import (
    SCHEDULES,
    FederationConfig,
    build_tree,
    depth_error_probe,
    run_federation,
)
from .linalg import truncated_svd
from .metrics import MetricLog, projection_error, qa_overlap
from .privacy import (
    SULQ_SYMMETRIC,
    STREAMING_NONSYMMETRIC,
    CalibrationError,
    DpConfig,
    NoiseScale,
    PrivacyInfeasibleError,
    derive_rng,
    masked_cov_blocks,
    omega_streaming,
    omega_symmetric_sulq,
    symmetric_gaussian_mask,
)

EPSILON_FLOOR = 1e-3


class ConfigError(ValueError):
    """Bad or missing configuration values."""


# ---------------------------------------------------------------------------
# parameter schemas: name -> (cast from string, default)

def _cast_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _float_list(text: str) -> list[float]:
    try:
        vals = [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None
    if not vals:
        raise ConfigError("empty list parameter")
    return vals


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None
    if not vals:
        raise ConfigError("empty list parameter")
    return vals


_DATA_PARAMS = {
    "data": (str, None),
    "orientation": (str, "columns"),
    "normalize": (str, "none"),
    "d": (int, None),
    "n": (int, None),
    "alpha": (float, 1.0),
    "generator": (str, "svd"),
}

_EDGE_PARAMS = {
    "rank": (int, 10),
    "batch": (int, 50),
    "forgetting": (float, 1.0),
    "adaptive": (_cast_bool, False),
    "energy_alpha": (float, 0.01),
    "energy_beta": (float, 0.10),
    "max_rank": (int, None),
    "cov_block": (int, None),
    "epsilon": (float, 0.1),
    "delta": (float, 0.1),
    "no_dp": (_cast_bool, False),
    "omega_floor": (float, None),
    "rescale_private": (_cast_bool, False),
}

SCHEMAS: dict[str, dict] = {
    "synth": {
        "seed": (int, 0),
        "d": (int, None),
        "n": (int, None),
        "alpha": (float, 1.0),
        "generator": (str, "svd"),
    },
    "run-edge": {"seed": (int, 0), **_DATA_PARAMS, **_EDGE_PARAMS},
    "run-federated": {
        "seed": (int, 0),
        **_DATA_PARAMS,
        **_EDGE_PARAMS,
        "leaves": (int, 4),
        "fanout": (int, 2),
        "schedule": (str, "synchronous_rounds"),
        "schedule_seed": (int, 0),
        "policy": (str, "contiguous"),
        "threads": (int, os.cpu_count() or 1),
    },
    "utility-sweep": {
        "seed": (int, 0),
        "d": (int, 20),
        "n": (int, 5000),
        "alphas": (str, "0.01,1.0"),
        "epsilons": (str, "0.1,0.5,1.0,2.0,4.0"),
        "reps": (int, 20),
        "rank": (int, 10),
        "cov_block": (int, None),
        "delta": (float, 0.1),
        "no_dp": (_cast_bool, False),
    },
    "depth-probe": {
        "seed": (int, 0),
        **_DATA_PARAMS,
        "fanout": (int, 2),
        "depths": (str, "1,2,3"),
        "rank": (int, 8),
    },
}

# depth-probe defaults differ from the shared data block
SCHEMAS["depth-probe"]["d"] = (int, 32)
SCHEMAS["depth-probe"]["n"] = (int, 256)


def _stringify(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_key_values(path) -> dict[str, str]:
    """Parse a flat key=value file; '#' lines are comments."""
    out: dict[str, str] = {}
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
        out[key.strip()] = raw.strip()
    return out


def resolve_params(command: str, flags, config: dict[str, str]) -> dict:
    """Flags beat config values beat defaults; unknown config keys fail."""
    schema = SCHEMAS[command]
    unknown = set(config) - set(schema) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    params = {}
    for name, (cast, default) in schema.items():
        flag_val = getattr(flags, name, None)
        if flag_val is not None:
            params[name] = flag_val
        elif name in config:
            raw = config[name]
            params[name] = default if raw == "" else cast(raw)
        else:
            params[name] = default
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
        x = load_csv(
            params["data"], orientation=params["orientation"], normalize="none"
        )
    else:
        if params.get("d") is None or params.get("n") is None:
            raise ConfigError("need --data or both --d and --n")
        gen = params.get("generator", "svd")
        if gen == "svd":
            x = synth(SynthSpec(params["d"], params["n"], params["alpha"], params["seed"]))
        elif gen == "gauss":
            x = synth_gaussian_cov(
                params["d"], params["n"], params["alpha"], params["seed"]
            )
        else:
            raise ConfigError(f"unknown generator {gen!r}")
    if params.get("normalize", "none") == "unit-ball":
        x, factor = normalize_unit_ball(x)
        meta.append(f"unit_ball_scale={factor!r}")
    return x


def _edge_pieces(params: dict, x: np.ndarray, meta: list[str]):
    """EnergyBounds / DpConfig / cov width shared by edge and federated runs."""
    d, n = x.shape
    energy = None
    if params["adaptive"]:
        energy = EnergyBounds(
            params["energy_alpha"], params["energy_beta"], params["max_rank"]
        )
        if params["energy_alpha"] / params["energy_beta"] >= 0.3:
            meta.append("warning: energy band lower/upper >= 0.3; rank may oscillate")
    dp = None
    if not params["no_dp"]:
        dp = DpConfig(params["epsilon"], params["delta"], params["omega_floor"])
        norms = np.linalg.norm(x, axis=0)
        outside = int(np.sum(norms > 1.0))
        if outside:
            meta.append(
                f"warning: dp enabled but {outside} of {n} columns lie outside "
                f"the unit ball (largest norm {float(np.max(norms)):.6g}); the "
                "budget assumes every column norm <= 1"
            )
    cov_block = params["cov_block"] if params["cov_block"] else min(d, 64)
    if params["batch"] < params["rank"]:
        meta.append(
            f"warning: batch width {params['batch']} below target rank "
            f"{params['rank']}; per-batch summaries stay rank-deficient"
        )
    return energy, dp, cov_block


def _log_edge_rows(log: MetricLog, timing: MetricLog, x: np.ndarray, client: EdgeClient, batch: int) -> None:
    n = x.shape[1]
    block = 0
    for lo in range(0, n, batch):
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
        if est.rank and float(np.sum(est.values)) > 0:
            log.add("energy_ratio", energy_ratio(est.values, est.rank), t=block)
        if client.dp is not None and client.last_omega is not None:
            log.add("noise_omega", client.last_omega, t=block)
            log.add("batch_width", hi - lo, t=block)
        block += 1
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
    d = x.shape[0]
    energy, dp, cov_block = _edge_pieces(params, x, meta)
    rank = min(params["rank"], d)
    client = EdgeClient(
        d,
        rank,
        batch_size=params["batch"],
        energy=energy,
        dp=dp,
        cov_block_width=cov_block,
        forgetting=params["forgetting"],
        rng=derive_rng(params["seed"], 0) if dp is not None else None,
        rescale_private=params["rescale_private"],
    )
    _log_edge_rows(log, timing, x, client, params["batch"])
    meta.append(f"blocks={client.blocks_seen}")
    meta.append(_blas.describe())
    return meta


def cmd_run_federated(params: dict, out_dir: Path, log: MetricLog, timing: MetricLog) -> list[str]:
    meta: list[str] = []
    x = _acquire_data(params, meta)
    d, n = x.shape
    energy, dp, cov_block = _edge_pieces(params, x, meta)
    leaves = params["leaves"]
    partition = partition_columns(n, leaves, params["policy"], params["seed"])
    streams = partition.split(x)
    tree = build_tree(leaves, params["fanout"])
    rank = min(params["rank"], d)

    cfg = FederationConfig(
        rank=rank,
        batch_size=params["batch"],
        energy=energy,
        dp=dp,
        cov_block_width=cov_block,
        forgetting=params["forgetting"],
        schedule=params["schedule"],
        schedule_seed=params["schedule_seed"],
        seed=params["seed"],
    )
    result = run_federation(streams, tree, cfg, params["threads"])
    for i, value in enumerate(result.estimate.values):
        log.add("global_value", value, t=i)
    log.add("merge_count", result.merge_count)
    for level, ranks in enumerate(result.per_level_ranks):
        for node_idx, r in enumerate(ranks):
            log.add("level_rank", r, t=level, node=node_idx)

    counts = ",".join(str(math.ceil(len(a) / params["batch"])) for a in partition.assignments)
    meta.append(f"client_batches={counts}")
    meta.append(f"tree depth={tree.depth} merges={result.merge_count}")
    meta.append(_blas.describe())
    return meta


def _sweep_estimators(
    x: np.ndarray,
    rank: int,
    cov_block: int,
    dp: Optional[DpConfig],
    rngs: tuple[np.random.Generator, np.random.Generator, np.random.Generator],
) -> dict[str, np.ndarray]:
    """Leading-direction estimates for the three private estimators."""
    d, n = x.shape
    if dp is None:
        scale_stream = NoiseScale(0.0, STREAMING_NONSYMMETRIC)
        scale_sym = NoiseScale(0.0, SULQ_SYMMETRIC)
    else:
        scale_stream = omega_streaming(dp, d, n)
        scale_sym = omega_symmetric_sulq(dp, d, n)

    client = EdgeClient(
        d,
        rank,
        batch_size=n,
        dp=dp,
        cov_block_width=cov_block,
        rng=rngs[0] if dp is not None else None,
    )
    client.process_batch(x)
    v_fpca = client.estimate.basis[:, 0]

    slab = next(masked_cov_blocks(x, d, scale_stream, rngs[1]))
    v_direct = truncated_svd(slab.data, 1).basis[:, 0]

    cov = (x @ x.T) / n + symmetric_gaussian_mask(d, scale_sym, rngs[2])
    _, vecs = np.linalg.eigh(cov)
    v_sym = vecs[:, -1]

    return {"fpca_mask": v_fpca, "stream_direct": v_direct, "sulq_symmetric": v_sym}


def cmd_utility_sweep(params: dict, out_dir: Path, log: MetricLog, timing: MetricLog) -> list[str]:
    meta: list[str] = []
    d, n = params["d"], params["n"]
    alphas = _float_list(params["alphas"])
    epsilons = _float_list(params["epsilons"])
    reps = params["reps"]
    if reps < 1:
        raise ConfigError("reps must be positive")
    rank = min(params["rank"], d)
    cov_block = params["cov_block"] if params["cov_block"] else min(d, 64)
    clipped = sorted({e for e in epsilons if e < EPSILON_FLOOR})
    if clipped:
        meta.append(
            f"warning: epsilon values {clipped} clipped to {EPSILON_FLOOR}"
        )

    for ai, alpha in enumerate(alphas):
        for rep in range(reps):
            data_seed = int(
                np.random.SeedSequence(
                    params["seed"], spawn_key=(ai, rep)
                ).generate_state(1)[0]
            )
            x = synth(SynthSpec(d, n, alpha, data_seed))
            norms = np.linalg.norm(x, axis=0)
            if np.min(norms) <= 0:
                raise DataError("degenerate zero column in sweep data")
            x = x / norms  # every sample on the unit sphere
            v_true = truncated_svd(x, 1).basis[:, 0]
            for ei, eps_raw in enumerate(epsilons):
                eps_eff = max(eps_raw, EPSILON_FLOOR)
                dp = None if params["no_dp"] else DpConfig(eps_eff, params["delta"])
                rngs = tuple(
                    derive_rng(params["seed"], ai, rep, ei, which) for which in range(3)
                )
                estimates = _sweep_estimators(x, rank, cov_block, dp, rngs)
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
    meta: list[str] = []
    x = _acquire_data(params, meta)
    d = x.shape[0]
    rank = min(params["rank"], d)
    for depth in _int_list(params["depths"]):
        measured, bound = depth_error_probe(x, params["fanout"], depth, rank)
        tags = {"fanout": params["fanout"], "rank": rank}
        log.add("measured_error", measured, t=depth, **tags)
        log.add("error_bound", bound, t=depth, **tags)
        log.add("within_bound", float(measured <= bound + 1e-12), t=depth, **tags)
    return meta


RUNNERS: dict[str, Callable] = {
    "synth": cmd_synth,
    "run-edge": cmd_run_edge,
    "run-federated": cmd_run_federated,
    "utility-sweep": cmd_utility_sweep,
    "depth-probe": cmd_depth_probe,
}


def _execute(command: str, params: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = _run_identifier(command, params)
    log = MetricLog(run_id)
    timing = MetricLog(run_id)
    started = time.perf_counter()
    meta = RUNNERS[command](params, out_dir, log, timing)
    timing.add("runtime_s", time.perf_counter() - started)
    if log.rows():
        log.write_csv(out_dir / "metrics.csv")
    timing.write_csv(out_dir / "timings.csv")
    _write_manifest(out_dir / "manifest.txt", command, params, meta)
    for entry in meta:
        if entry.startswith("warning:"):
            print(f"fedpca {entry}", file=sys.stderr)
    print(f"{command}: wrote {out_dir} (run {run_id})")


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--config", default=None, help="key=value config file")


def _add_data_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--data", default=None, help="CSV matrix to load instead of synthesizing")
    sp.add_argument("--orientation", choices=("columns", "rows"), default=None)
    sp.add_argument("--normalize", choices=("none", "unit-ball"), default=None)
    sp.add_argument("--d", type=int, default=None, help="rows of the synthetic matrix")
    sp.add_argument("--n", type=int, default=None, help="columns of the synthetic matrix")
    sp.add_argument("--alpha", type=float, default=None, help="spectrum decay exponent")
    sp.add_argument("--generator", choices=("svd", "gauss"), default=None)


def _add_edge_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rank", type=int, default=None, help="target rank (default 10)")
    sp.add_argument("--batch", type=int, default=None, help="batch width (default 50)")
    sp.add_argument("--lambda", dest="forgetting", type=float, default=None,
                    help="forgetting factor in (0, 1] (default 1)")
    sp.add_argument("--adaptive", action="store_const", const=True, default=None,
                    help="enable energy-based rank adaptation")
    sp.add_argument("--energy-alpha", dest="energy_alpha", type=float, default=None)
    sp.add_argument("--energy-beta", dest="energy_beta", type=float, default=None)
    sp.add_argument("--max-rank", dest="max_rank", type=int, default=None)
    sp.add_argument("--cov-block", dest="cov_block", type=int, default=None,
                    help="covariance slab width (default min(d, 64))")
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--no-dp", dest="no_dp", action="store_const", const=True,
                    default=None, help="disable the privacy mask")
    sp.add_argument("--omega-floor", dest="omega_floor", type=float, default=None,
                    help="reject batches whose noise scale would exceed this")
    sp.add_argument("--rescale-private", dest="rescale_private", action="store_const",
                    const=True, default=None,
                    help="rescale private values to the data scale")


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

    sp = sub.add_parser("synth", help="write a synthetic matrix as CSV")
    _add_common(sp)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--generator", choices=("svd", "gauss"), default=None)

    sp = sub.add_parser("run-edge", help="stream one client over a matrix")
    _add_common(sp)
    _add_data_opts(sp)
    _add_edge_opts(sp)

    sp = sub.add_parser("run-federated", help="stream M clients and aggregate")
    _add_common(sp)
    _add_data_opts(sp)
    _add_edge_opts(sp)
    sp.add_argument("--leaves", type=int, default=None, help="number of clients")
    sp.add_argument("--fanout", type=int, default=None, help="aggregation arity")
    sp.add_argument("--schedule", choices=SCHEDULES, default=None)
    sp.add_argument("--schedule-seed", dest="schedule_seed", type=int, default=None)
    sp.add_argument("--policy", choices=("contiguous", "round_robin", "seeded_shuffle"),
                    default=None, help="column partition policy")
    sp.add_argument("--threads", type=int, default=None,
                    help="leaf thread pool size (default: cpu count)")

    sp = sub.add_parser("utility-sweep", help="leading-direction overlap vs epsilon")
    _add_common(sp)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--alphas", default=None, help="comma-separated decay exponents")
    sp.add_argument("--epsilons", default=None, help="comma-separated epsilon grid")
    sp.add_argument("--reps", type=int, default=None)
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--cov-block", dest="cov_block", type=int, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--no-dp", dest="no_dp", action="store_const", const=True, default=None)

    sp = sub.add_parser("depth-probe", help="tree-depth error against its bound")
    _add_common(sp)
    _add_data_opts(sp)
    sp.add_argument("--fanout", type=int, default=None)
    sp.add_argument("--depths", default=None, help="comma-separated tree depths")
    sp.add_argument("--rank", type=int, default=None)

    sp = sub.add_parser("replay", help="re-run a command from its manifest")
    sp.add_argument("manifest", help="manifest.txt of a previous run")
    sp.add_argument("--out", required=True, help="output directory for the replay")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            stored = load_key_values(args.manifest)
            command = stored.pop("command", None)
            if command not in RUNNERS:
                raise ConfigError(f"manifest has no known command ({command!r})")
            params = resolve_params(command, argparse.Namespace(), stored)
            _execute(command, params, Path(args.out))
        else:
            config = load_key_values(args.config) if args.config else {}
            config.pop("command", None)
            params = resolve_params(args.command, args, config)
            _execute(args.command, params, Path(args.out))
    except PrivacyInfeasibleError as exc:
        print(f"fedpca: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"fedpca: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"fedpca: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, CalibrationError, ValueError) as exc:
        print(f"fedpca: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
