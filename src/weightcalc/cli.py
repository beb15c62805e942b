"""Command-line front end: exact Lie-theory computations with JSON/text output.

Subcommands::

    info         facts about a root system or built-in group
    fk           alternating Weyl sum F_k (and its reduced quotient)
    powersum     power sum P_k of the weight multiset of a highest weight
    elementary   elementary symmetric function E_k of the same multiset
    chern        Chern classes in character-lattice generators
    chern2       closed form for the second Chern class
    swc          Stiefel-Whitney classes of an orthogonal representation
    swc-total    factorization of the total Stiefel-Whitney class
    spinorial    spin-lift decision with certificate
    orthotype    orthogonal / symplectic / not-self-dual typing
    oracle weights   brute-force weight multiplicities
    verify       consistency triangle + oracle-equivalence grid

Output is deterministic for a fixed job: canonical term order and sorted
JSON keys.  ``fk`` takes ``--cache-dir`` (default: env ``WEIGHTCALC_CACHE``),
which keeps one JSON file of alternating-sum tables per (kind, rank);
corrupt, incomplete or mismatching cache files are silently recomputed and
rewritten, and a cache that cannot be written is skipped.  Exit codes:
0 success, 2 domain error (bad input), 1 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from . import __version__
from .errors import DomainError, InternalError, WeightcalcError
from .polyalg import BiPoly, Mod2Poly, mod2_reduce
from .rootsys import RootSystem, _expected_counts, build_root_system
from .weylsum import FkTable
from .powersum import elementary_from_power, power_sums
from .oracle import (
    DEFAULT_MAX_DIM,
    oracle_elementary,
    oracle_power_sum,
    weight_multiplicities,
)
from .charclass import (
    PiSpec,
    builtin_lattice,
    chern_classes,
    chern2_closed,
    is_spinorial,
    lattice_orthogonality_type,
    orthogonality_type,
    swc_restrict,
    total_swc_factorization,
)

SCHEMA = 1
FINGERPRINT = f"weightcalc-{__version__}"


# -- job parameters ------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One validated CLI job; every field that affects output bytes."""

    command: str
    kind: Optional[str] = None
    rank: Optional[int] = None
    group: Optional[str] = None
    weight: Optional[Tuple[int, ...]] = None
    k: Optional[int] = None
    s_wrap: bool = False
    fmt: str = "text"
    max_dim: int = DEFAULT_MAX_DIM
    # plumbing that must NOT change output bytes:
    cache_dir: Optional[str] = None


_TYPE_RE = re.compile(r"^([A-Ga-g])\s*([0-9]+)?$")


def _parse_type(value: str, rank: Optional[int]) -> tuple[str, int]:
    m = _TYPE_RE.match(value.strip())
    if not m:
        raise DomainError(
            f"bad --type {value!r}; expected a letter A-G with an optional rank, e.g. A2"
        )
    kind = m.group(1).upper()
    inline = m.group(2)
    if inline is not None and rank is not None and int(inline) != rank:
        raise DomainError("--type carries a rank that contradicts --rank")
    if inline is not None:
        return kind, int(inline)
    if rank is None:
        raise DomainError("missing rank: pass --rank N or a combined --type like A2")
    return kind, rank


def _parse_weight(value: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in value.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DomainError(
            f"bad --weight {value!r}; expected comma-separated integers like 1,0,2"
        ) from None


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    kind = rank = None
    if getattr(args, "type", None) is not None and getattr(args, "group", None) is not None:
        raise DomainError("pass --type or --group, not both")
    if getattr(args, "type", None) is not None:
        kind, rank = _parse_type(args.type, getattr(args, "rank", None))
    elif getattr(args, "rank", None) is not None:
        raise DomainError("--rank makes sense only together with --type")
    weight = None
    if getattr(args, "weight", None) is not None:
        weight = _parse_weight(args.weight)
    max_dim = getattr(args, "max_dim", None)
    command = args.command
    if command == "oracle":
        command = f"oracle {args.oracle_command}"
    return JobSpec(
        command=command,
        kind=kind,
        rank=rank,
        group=getattr(args, "group", None),
        weight=weight,
        k=getattr(args, "k", None),
        s_wrap=bool(getattr(args, "s_wrap", False)),
        fmt=getattr(args, "format", "text"),
        max_dim=DEFAULT_MAX_DIM if max_dim is None else max_dim,
        cache_dir=getattr(args, "cache_dir", None)
        or os.environ.get("WEIGHTCALC_CACHE")
        or None,
    )


def _need_rs(job: JobSpec) -> RootSystem:
    """Root system from --type/--rank, or from the group's underlying system."""
    if job.kind is not None:
        return build_root_system(job.kind, job.rank)
    if job.group is not None:
        return builtin_lattice(job.group).root_system()
    raise DomainError("missing root system: pass --type (e.g. --type A2) or --group")


def _need_group(job: JobSpec):
    if job.group is None:
        raise DomainError("this command needs --group (e.g. --group SL3)")
    return builtin_lattice(job.group)


def _need_weight(job: JobSpec) -> Tuple[int, ...]:
    if job.weight is None:
        raise DomainError("this command needs --weight c1,c2,...")
    return job.weight


def _kmax(job: JobSpec) -> int:
    kmax = 6 if job.k is None else job.k
    if kmax < 0:
        raise DomainError("--k must be nonnegative")
    return kmax


def _need_k(job: JobSpec) -> int:
    if job.k is None:
        raise DomainError("this command needs --k")
    return _kmax(job)


# -- cache ----------------------------------------------------------------------


def _system_name(kind: str, rank: int) -> str:
    """Display name: the rank is appended unless the kind already carries it."""
    return kind if kind[-1].isdigit() else f"{kind}{rank}"


def _cache_path(cache_dir: str, kind: str, rank: int) -> str:
    return os.path.join(cache_dir, f"fk_{_system_name(kind, rank)}.json")


def _cache_load(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    if data.get("schema") != SCHEMA or data.get("fingerprint") != FINGERPRINT:
        return None
    return data


def _cache_store(path: str, obj: dict) -> None:
    """Write obj to path atomically; a store that fails is skipped."""
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        os.replace(tmp, path)  # atomic swap: readers only ever see whole files
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _fk_table(job: JobSpec, rs: RootSystem, kmax: int) -> FkTable:
    if job.cache_dir is None:
        return FkTable.build(rs, kmax)
    path = _cache_path(job.cache_dir, rs.kind, rs.rank)
    data = _cache_load(path)
    if data is not None and data.get("kind") == rs.kind and data.get("rank") == rs.rank:
        try:
            stored_kmax = int(data["kmax"])
            if stored_kmax >= kmax:
                # a missing entry raises KeyError: the file is corrupt
                entries, reduced = (
                    {k: BiPoly.from_json_obj(data[part][str(k)], rs.rank, rs.rank)
                     for k in range(stored_kmax + 1)}
                    for part in ("entries", "reduced")
                )
                return FkTable(
                    kind=rs.kind, rank=rs.rank, kmax=stored_kmax,
                    entries=entries, reduced=reduced,
                )
            kmax = max(kmax, stored_kmax)
        except (KeyError, TypeError, ValueError, DomainError):
            pass  # corrupt cache entry: fall through and recompute
    table = FkTable.build(rs, kmax)
    _cache_store(path, {
        "schema": SCHEMA,
        "fingerprint": FINGERPRINT,
        "kind": rs.kind,
        "rank": rs.rank,
        "kmax": table.kmax,
        "entries": {str(k): v.to_json_obj() for k, v in table.entries.items()},
        "reduced": {str(k): v.to_json_obj() for k, v in table.reduced.items()},
    })
    return table


# -- rendering -------------------------------------------------------------------


def _mod2_json(p: Mod2Poly, names: Sequence[str]) -> dict:
    terms = []
    for e in sorted(p.terms, key=lambda t: (sum(t), t), reverse=True):
        terms.append({names[i]: k for i, k in enumerate(e) if k})
    return {"terms": terms}


def _emit(job: JobSpec, input_obj: dict, result_obj: dict, text_lines: list[str]) -> None:
    if job.fmt == "json":
        doc = {"schema": SCHEMA, "input": input_obj, "result": result_obj}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _system_input(job: JobSpec, rs: RootSystem) -> dict:
    return {"kind": rs.kind, "rank": rs.rank}


# -- command implementations ------------------------------------------------------


def _cmd_info(job: JobSpec) -> int:
    result: dict = {}
    lines: list[str] = []
    input_obj: dict = {}
    if job.group is not None:
        lat = builtin_lattice(job.group)
        rs = lat.root_system()
        input_obj["group"] = lat.name
        result.update({
            "group": lat.name,
            "family": lat.family,
            "torus_rank": lat.torus_rank,
            "generators": list(lat.gen_names),
            "torsion_generators": list(lat.v_names),
            "basis": [list(row) for row in lat.basis],
        })
        lines.append(f"group {lat.name} (family {lat.family})")
        lines.append(f"torus rank {lat.torus_rank}; generators "
                     + ", ".join(lat.gen_names))
        lines.append("lattice basis rows (fundamental-weight coordinates): "
                     + "; ".join(str(list(row)) for row in lat.basis))
    else:
        rs = _need_rs(job)
        input_obj["kind"], input_obj["rank"] = rs.kind, rs.rank
    _, weyl_order = _expected_counts(rs.kind, rs.rank)
    result.update({
        "kind": rs.kind,
        "rank": rs.rank,
        "dim_g": rs.dim_g,
        "positive_roots": rs.num_positive,
        "weyl_order": weyl_order,
        "minus_one_in_weyl": rs.minus_one_in_weyl,
    })
    lines.append(f"root system {_system_name(rs.kind, rs.rank)}: dim g = {rs.dim_g}, "
                 f"{rs.num_positive} positive roots")
    lines.append(f"Weyl group order {weyl_order}; "
                 f"contains -1: {'yes' if rs.minus_one_in_weyl else 'no'}")
    _emit(job, input_obj, result, lines)
    return 0


def _cmd_fk(job: JobSpec) -> int:
    rs = _need_rs(job)
    k = _need_k(job)
    table = _fk_table(job, rs, k)
    fk = table.entries[k]
    red = table.reduced[k]
    result = {
        "k": k,
        "f": fk.to_json_obj(),
        "f_reduced": red.to_json_obj(),
    }
    lines = [f"F_{k} = {fk.render()}", f"F_{k} / (d * d-dual) = {red.render()}"]
    _emit(job, {**_system_input(job, rs), "k": k}, result, lines)
    return 0


def _cmd_powersum(job: JobSpec) -> int:
    rs = _need_rs(job)
    lam = _need_weight(job)
    k = _need_k(job)
    p = power_sums(rs, lam, k)[k]
    result = {"k": k, "weight": list(lam), "p": p.to_json_obj()}
    _emit(job, {**_system_input(job, rs), "weight": list(lam), "k": k},
          result, [p.render()])
    return 0


def _cmd_elementary(job: JobSpec) -> int:
    rs = _need_rs(job)
    lam = _need_weight(job)
    k = _need_k(job)
    e = elementary_from_power(power_sums(rs, lam, k), k)[k]
    result = {"k": k, "weight": list(lam), "e": e.to_json_obj()}
    _emit(job, {**_system_input(job, rs), "weight": list(lam), "k": k},
          result, [e.render()])
    return 0


def _group_input(job: JobSpec, lat, weight: Tuple[int, ...]) -> dict:
    obj = {"group": lat.name, "weight": list(weight)}
    if job.s_wrap:
        obj["s_wrap"] = True
    return obj


def _cmd_chern(job: JobSpec) -> int:
    lat = _need_group(job)
    weight = _need_weight(job)
    kmax = _kmax(job)
    res = chern_classes(lat, PiSpec(weight, job.s_wrap), kmax)
    names = list(lat.gen_names)
    result = {
        "degree": res.degree,
        "c": [ck.to_json_obj(a_names=names, y_names=[]) for ck in res.c],
    }
    lines = [f"degree {res.degree}"]
    lines += [f"c_{k} = {ck.render(a_names=names, y_names=[])}"
              for k, ck in enumerate(res.c)]
    _emit(job, {**_group_input(job, lat, weight), "kmax": kmax}, result, lines)
    return 0


def _cmd_chern2(job: JobSpec) -> int:
    lat = _need_group(job)
    weight = _need_weight(job)
    c2 = chern2_closed(lat, weight)
    names = list(lat.gen_names)
    result = {"c2": c2.to_json_obj(a_names=names, y_names=[])}
    _emit(job, _group_input(job, lat, weight), result,
          [f"c_2 = {c2.render(a_names=names, y_names=[])}"])
    return 0


def _cmd_swc(job: JobSpec) -> int:
    lat = _need_group(job)
    weight = _need_weight(job)
    kmax = _kmax(job)
    res = swc_restrict(lat, PiSpec(weight, job.s_wrap), kmax)
    names = list(lat.v_names)
    result = {"w": [_mod2_json(wk, names) for wk in res.w]}
    lines = [f"w_{k} = {wk.render(names)}" for k, wk in enumerate(res.w)]
    _emit(job, {**_group_input(job, lat, weight), "kmax": kmax}, result, lines)
    return 0


def _cmd_swc_total(job: JobSpec) -> int:
    lat = _need_group(job)
    weight = _need_weight(job)
    kmax = _kmax(job)
    res = total_swc_factorization(lat, PiSpec(weight, job.s_wrap), kmax,
                                  max_dim=job.max_dim)
    names = list(lat.v_names)
    result = {
        "m": list(res.total_factorization),
        "w": [_mod2_json(wk, names) for wk in res.w],
        "agrees_with_restriction": True,  # enforced inside, or it would have raised
    }
    lines = ["m = " + ", ".join(
        f"m_{k+1}={m}" for k, m in enumerate(res.total_factorization))]
    lines += [f"w_{k} = {wk.render(names)}" for k, wk in enumerate(res.w)]
    _emit(job, {**_group_input(job, lat, weight), "kmax": kmax}, result, lines)
    return 0


def _cmd_spinorial(job: JobSpec) -> int:
    lat = _need_group(job)
    weight = _need_weight(job)
    res = is_spinorial(lat, PiSpec(weight, job.s_wrap))
    names = list(lat.gen_names)
    result = {
        "spinorial": res.spinorial,
        "c2": res.c2.to_json_obj(a_names=names, y_names=[]),
        "j": res.valuation,
        "secondary_integral": res.secondary_integral,
    }
    lines = [
        f"spinorial: {'yes' if res.spinorial else 'no'}",
        f"c_2 = {res.c2.render(a_names=names, y_names=[])}",
    ]
    if res.valuation is not None:
        lines.append(f"j = {res.valuation}; 2^(-j) * Q2 integral: "
                     f"{'yes' if res.secondary_integral else 'no'}")
    _emit(job, _group_input(job, lat, weight), result, lines)
    return 0


def _cmd_orthotype(job: JobSpec) -> int:
    weight = _need_weight(job)
    if job.group is not None:
        lat = builtin_lattice(job.group)
        kind = lattice_orthogonality_type(lat, weight)
        input_obj = {"group": lat.name, "weight": list(weight)}
    else:
        rs = _need_rs(job)
        kind = orthogonality_type(rs, weight)
        input_obj = {**_system_input(job, rs), "weight": list(weight)}
    _emit(job, input_obj, {"type": kind}, [kind])
    return 0


def _cmd_oracle_weights(job: JobSpec) -> int:
    rs = _need_rs(job)
    lam = _need_weight(job)
    wm = weight_multiplicities(rs, lam, max_dim=job.max_dim)
    items = sorted(wm.expanded().items(), key=lambda kv: (sum(kv[0]), kv[0]),
                   reverse=True)
    result = {
        "lambda": list(lam),
        "weights": [{"mu": list(mu), "m": m} for mu, m in items],
    }
    lines = [f"dimension {wm.dimension}"]
    lines += [f"mu = {','.join(str(c) for c in mu)}  m = {m}" for mu, m in items]
    _emit(job, {**_system_input(job, rs), "weight": list(lam)}, result, lines)
    return 0


# -- verify ------------------------------------------------------------------------


def _verify_checks(job: JobSpec) -> list[tuple[str, Callable[[], None]]]:
    checks: list[tuple[str, Callable[[], None]]] = []

    def oracle_case(kind: str, rank: int, lam: Tuple[int, ...], kmax: int):
        def run() -> None:
            rs = build_root_system(kind, rank)
            wm = weight_multiplicities(rs, lam, max_dim=job.max_dim)
            power = power_sums(rs, lam, kmax)
            elem = elementary_from_power(power, kmax)
            oelem = oracle_elementary(wm, kmax)
            for k in range(kmax + 1):
                if power[k] != oracle_power_sum(wm, k):
                    raise InternalError(f"P_{k} disagrees with the oracle")
                if elem[k] != oelem[k]:
                    raise InternalError(f"E_{k} disagrees with the oracle")
        return run

    for kind, rank in (("A", 1), ("A", 2), ("B", 2)):
        rank_coords = rank
        lams = []
        if rank_coords == 1:
            lams = [(0,), (1,), (2,)]
        else:
            lams = [(a, b) for a in range(3) for b in range(3)]
        for lam in lams:
            checks.append(
                (f"oracle {kind}{rank} weight {','.join(map(str, lam))}",
                 oracle_case(kind, rank, lam, 4))
            )

    def triangle_case(group: str, weight: Tuple[int, ...], s_wrap: bool):
        def run() -> None:
            lat = builtin_lattice(group)
            pi = PiSpec(weight, s_wrap)
            fac = total_swc_factorization(lat, pi, 6, max_dim=job.max_dim)
            ref = swc_restrict(lat, pi, 6)
            ch = chern_classes(lat, pi, 6)
            for k in range(7):
                if fac.w[k] != ref.w[k] or ref.w[k] != mod2_reduce(ch.c[k]):
                    raise InternalError(f"consistency triangle broken in degree {k}")
            if not s_wrap and lat.family != "GL":
                if chern2_closed(lat, weight) != ch.c[2]:
                    raise InternalError("closed-form c_2 disagrees")
        return run

    triangle = [
        ("SL2", (0,), False), ("SL2", (2,), False), ("SL2", (4,), False),
        ("SL2", (1,), True), ("SL2", (3,), True),
        ("SL3", (1, 1), False), ("SL3", (2, 2), False),
        ("SL3", (1, 0), True), ("SL3", (2, 1), True),
        ("Sp4", (2, 0), False),
    ]
    for group, weight, s_wrap in triangle:
        tag = "S-wrapped " if s_wrap else ""
        checks.append(
            (f"triangle {group} {tag}weight {','.join(map(str, weight))}",
             triangle_case(group, weight, s_wrap))
        )
    return checks


def _cmd_verify(job: JobSpec) -> int:
    checks = _verify_checks(job)
    outcomes: list[tuple[str, Optional[str]]] = []
    for name, fn in checks:
        err = None
        try:
            fn()
        except WeightcalcError as exc:
            err = str(exc)
        outcomes.append((name, err))
    ok = all(err is None for _, err in outcomes)
    result = {
        "ok": ok,
        "checks": [
            {"name": name, "ok": err is None, **({"error": err} if err else {})}
            for name, err in outcomes
        ],
    }
    lines = [
        (f"PASS {name}" if err is None else f"FAIL {name}: {err}")
        for name, err in outcomes
    ]
    lines.append(f"{sum(1 for _, e in outcomes if e is None)}/{len(outcomes)} checks passed")
    _emit(job, {"command": "verify"}, result, lines)
    return 0 if ok else 1


# -- argument parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightcalc",
        description="Exact weight-multiset invariants and characteristic "
                    "classes for simple compact groups.",
    )
    parser.add_argument("--version", action="version", version=FINGERPRINT)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser, *, weight: bool = False,
               k: bool = False, group: bool = False, system: bool = False,
               s_wrap: bool = False, max_dim: bool = False) -> None:
        if system:
            p.add_argument("--type", help="root-system type, e.g. A2 (or A with --rank)")
            p.add_argument("--rank", type=int, help="root-system rank")
        if group:
            p.add_argument("--group", help="built-in group name, e.g. SL3, PGL2, Sp4")
        if weight:
            p.add_argument("--weight", help="weight coordinates c1,c2,...")
        if k:
            p.add_argument("--k", type=int, help="degree / truncation order")
        if s_wrap:
            p.add_argument("--s-wrap", dest="s_wrap", action="store_true",
                           help="use the doubled form: the sum with the dual")
        if max_dim:
            p.add_argument("--max-dim", dest="max_dim", type=int,
                           help="guard on representation dimension "
                                f"(default {DEFAULT_MAX_DIM})")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("info", help="root system / group facts")
    common(p, system=True, group=True)

    fk = sub.add_parser("fk", help="alternating Weyl sum F_k")
    common(fk, system=True, k=True)

    p = sub.add_parser("powersum", help="power sum P_k of the weight multiset")
    common(p, system=True, weight=True, k=True)

    p = sub.add_parser("elementary", help="elementary symmetric E_k")
    common(p, system=True, weight=True, k=True)

    p = sub.add_parser("chern", help="Chern classes in lattice generators")
    common(p, group=True, weight=True, k=True, s_wrap=True)

    p = sub.add_parser("chern2", help="closed form for c_2")
    common(p, group=True, weight=True)

    p = sub.add_parser("swc", help="Stiefel-Whitney classes")
    common(p, group=True, weight=True, k=True, s_wrap=True)

    p = sub.add_parser("swc-total", help="total-class factorization")
    common(p, group=True, weight=True, k=True, s_wrap=True, max_dim=True)

    p = sub.add_parser("spinorial", help="spin-lift decision with certificate")
    common(p, group=True, weight=True, s_wrap=True)

    p = sub.add_parser("orthotype", help="orthogonal / symplectic / not-self-dual")
    common(p, system=True, group=True, weight=True)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_command", required=True, metavar="WHAT")
    ow = osub.add_parser("weights", help="weight multiplicities by Freudenthal recursion")
    common(ow, system=True, weight=True, max_dim=True)

    p = sub.add_parser("verify", help="consistency triangle + oracle grid")
    common(p, max_dim=True)

    fk.add_argument("--cache-dir", dest="cache_dir",
                    help="cache directory (default: env WEIGHTCALC_CACHE)")
    return parser


_DISPATCH = {
    "info": _cmd_info,
    "fk": _cmd_fk,
    "powersum": _cmd_powersum,
    "elementary": _cmd_elementary,
    "chern": _cmd_chern,
    "chern2": _cmd_chern2,
    "swc": _cmd_swc,
    "swc-total": _cmd_swc_total,
    "spinorial": _cmd_spinorial,
    "orthotype": _cmd_orthotype,
    "oracle weights": _cmd_oracle_weights,
    "verify": _cmd_verify,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    job = _job_from_args(args)
    handler = _DISPATCH.get(job.command)
    if handler is None:
        raise DomainError(f"unknown command {job.command!r}")
    return handler(job)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except WeightcalcError as exc:  # base class fallback
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
