"""Command-line front end: exact Lie-theory computations with JSON/text output.

``_DISPATCH`` is the one table of subcommands: each name maps to its
handler, its help line and the common flags it takes, and ``_build_parser``
builds every subparser from it, ``oracle weights`` included.  Flag defaults
live on the top-level parser only; ``_check_flags`` validates --type, --rank,
--group and --weight once, and the handlers then read the namespace.

Output is deterministic: canonical term order and sorted JSON keys.  ``fk``
takes ``--cache-dir`` (default: env ``WEIGHTCALC_CACHE``), which keeps one
JSON file of alternating-sum tables per root system; corrupt, incomplete or
mismatching cache files are recomputed and rewritten, and a cache that
cannot be written is skipped.  Exit codes: 0 success, 2 domain error (bad
input, or a guard such as ``--max-dim`` refusing the work), 1 internal
invariant violation; ``verify`` also exits 1 when one of its checks fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import sys
from collections.abc import Callable, Sequence
from functools import partial

from . import __version__
from .errors import DomainError, InternalError
from .polyalg import BiPoly, _order_key, mod2_reduce
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


# -- common flags ----------------------------------------------------------------

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*([0-9]+)?$")


def _check_flags(args: argparse.Namespace) -> None:
    """Validate --type, --rank, --group and --weight in place, before dispatch.

    Afterwards ``args.type`` is the kind letter and ``args.rank`` its rank
    (both None without --type), and ``args.weight`` is a tuple of ints.
    """
    if args.type is not None and args.group is not None:
        raise DomainError("pass --type or --group, not both")
    if args.type is not None:
        m = _TYPE_RE.match(args.type.strip())
        if not m:
            raise DomainError(
                f"bad --type {args.type!r}; expected a letter A-G with an optional rank, e.g. A2"
            )
        inline = m.group(2)
        if inline is not None:
            if args.rank is not None and int(inline) != args.rank:
                raise DomainError("--type carries a rank that contradicts --rank")
            args.rank = int(inline)
        elif args.rank is None:
            raise DomainError("missing rank: pass --rank N or a combined --type like A2")
        args.type = m.group(1).upper()
    elif args.rank is not None:
        raise DomainError("--rank makes sense only together with --type")
    if args.weight is not None:
        try:
            args.weight = tuple(int(p) for p in args.weight.split(","))
        except ValueError:
            raise DomainError(
                f"bad --weight {args.weight!r}; expected comma-separated integers like 1,0,2"
            ) from None


def _need_rs(args: argparse.Namespace) -> RootSystem:
    """Root system from --type/--rank; the commands that take --group read it first."""
    if args.type is None:
        hint = " or --group" if args.takes_group else ""
        raise DomainError(f"missing root system: pass --type (e.g. --type A2){hint}")
    return build_root_system(args.type, args.rank)


def _need_weight(args: argparse.Namespace) -> tuple[int, ...]:
    if args.weight is None:
        raise DomainError("this command needs --weight c1,c2,...")
    return args.weight


def _need_group_weight(args: argparse.Namespace):
    """The --group lattice and the --weight of a group-side command."""
    if args.group is None:
        raise DomainError("this command needs --group (e.g. --group SL3)")
    return builtin_lattice(args.group), _need_weight(args)


def _kmax(args: argparse.Namespace) -> int:
    kmax = 6 if args.k is None else args.k
    if kmax < 0:
        raise DomainError("--k must be nonnegative")
    return kmax


def _need_k(args: argparse.Namespace) -> int:
    if args.k is None:
        raise DomainError("this command needs --k")
    return _kmax(args)


# -- cache ----------------------------------------------------------------------


def _cache_load(path: str) -> dict | None:
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
    import tempfile  # here, not at the top: only a cache miss pays for it

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


def _fk_pair(args: argparse.Namespace, rs: RootSystem, k: int) -> tuple[BiPoly, BiPoly]:
    """F_k and F'_k; a warm cache hit parses these two entries and no others."""
    cache_dir = args.cache_dir or os.environ.get("WEIGHTCALC_CACHE")
    path = cache_dir and os.path.join(cache_dir, f"fk_{rs.name}.json")
    data = _cache_load(path) if path else None
    if data is not None and data.get("kind") == rs.kind and data.get("rank") == rs.rank:
        try:
            if int(data["kmax"]) >= k:
                # a missing entry raises KeyError: the file is corrupt
                return tuple(BiPoly.from_json_obj(data[part][str(k)], rs.rank, rs.rank)
                             for part in ("entries", "reduced"))
        except (KeyError, TypeError, ValueError, DomainError):
            pass  # corrupt cache entry: fall through and recompute
    table = FkTable.build(rs, k)
    if path:
        _cache_store(path, {
            "schema": SCHEMA,
            "fingerprint": FINGERPRINT,
            "kind": rs.kind,
            "rank": rs.rank,
            "kmax": table.kmax,
            "entries": {str(j): v.to_json_obj() for j, v in table.entries.items()},
            "reduced": {str(j): v.to_json_obj() for j, v in table.reduced.items()},
        })
    return table.entries[k], table.reduced[k]


# -- rendering -------------------------------------------------------------------


def _classes(sym: str, polys: Sequence, names: Sequence[str]) -> tuple[list[dict], list[str]]:
    """The JSON list and the ``<sym>_k = ...`` lines of the classes c_k or w_k."""
    return ([p.to_json_obj(names) for p in polys],
            [f"{sym}_{k} = {p.render(names)}" for k, p in enumerate(polys)])


def _emit(args: argparse.Namespace, input_obj: dict, result_obj: dict,
          text_lines: list[str]) -> None:
    if args.format == "json":
        doc = {"schema": SCHEMA, "input": input_obj, "result": result_obj}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _system_input(rs: RootSystem) -> dict:
    return {"kind": rs.kind, "rank": rs.rank}


def _group_input(args: argparse.Namespace, lat, weight: tuple[int, ...]) -> dict:
    obj = {"group": lat.name, "weight": list(weight)}
    if args.s_wrap:
        obj["s_wrap"] = True
    return obj


# -- command implementations ------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    result: dict = {}
    lines: list[str] = []
    input_obj: dict = {}
    if args.group is not None:
        lat = builtin_lattice(args.group)
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
        rs = _need_rs(args)
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
    lines.append(f"root system {rs.name}: dim g = {rs.dim_g}, "
                 f"{rs.num_positive} positive roots")
    lines.append(f"Weyl group order {weyl_order}; "
                 f"contains -1: {'yes' if rs.minus_one_in_weyl else 'no'}")
    _emit(args, input_obj, result, lines)
    return 0


def _cmd_fk(args: argparse.Namespace) -> int:
    rs = _need_rs(args)
    k = _need_k(args)
    fk, red = _fk_pair(args, rs, k)
    result = {"k": k, "f": fk.to_json_obj(), "f_reduced": red.to_json_obj()}
    lines = [f"F_{k} = {fk.render()}", f"F_{k} / (d * d-dual) = {red.render()}"]
    _emit(args, {**_system_input(rs), "k": k}, result, lines)
    return 0


def _cmd_multiset(args: argparse.Namespace, key: str = "p") -> int:
    """P_k of the weight multiset (key "p"), or E_k from it by Newton (key "e")."""
    rs = _need_rs(args)
    lam = _need_weight(args)
    k = _need_k(args)
    sums = power_sums(rs, lam, k)
    if key == "e":
        sums = elementary_from_power(sums, k)
    result = {"k": k, "weight": list(lam), key: sums[k].to_json_obj()}
    _emit(args, {**_system_input(rs), "weight": list(lam), "k": k},
          result, [sums[k].render()])
    return 0


def _cmd_chern(args: argparse.Namespace) -> int:
    lat, weight = _need_group_weight(args)
    kmax = _kmax(args)
    res = chern_classes(lat, PiSpec(weight, args.s_wrap), kmax)
    c, lines = _classes("c", res.c, lat.gen_names)
    _emit(args, {**_group_input(args, lat, weight), "kmax": kmax},
          {"degree": res.degree, "c": c}, [f"degree {res.degree}", *lines])
    return 0


def _cmd_chern2(args: argparse.Namespace) -> int:
    lat, weight = _need_group_weight(args)
    c2 = chern2_closed(lat, weight)
    _emit(args, _group_input(args, lat, weight), {"c2": c2.to_json_obj(lat.gen_names)},
          [f"c_2 = {c2.render(lat.gen_names)}"])
    return 0


def _cmd_swc(args: argparse.Namespace) -> int:
    lat, weight = _need_group_weight(args)
    kmax = _kmax(args)
    res = swc_restrict(lat, PiSpec(weight, args.s_wrap), kmax)
    w, lines = _classes("w", res.w, lat.v_names)
    _emit(args, {**_group_input(args, lat, weight), "kmax": kmax}, {"w": w}, lines)
    return 0


def _cmd_swc_total(args: argparse.Namespace) -> int:
    lat, weight = _need_group_weight(args)
    kmax = _kmax(args)
    res = total_swc_factorization(lat, PiSpec(weight, args.s_wrap), kmax,
                                  max_dim=args.max_dim)
    w, lines = _classes("w", res.w, lat.v_names)
    result = {
        "m": list(res.total_factorization),
        "w": w,
        "agrees_with_restriction": True,  # enforced inside, or it would have raised
    }
    lines.insert(0, "m = " + ", ".join(
        f"m_{k+1}={m}" for k, m in enumerate(res.total_factorization)))
    _emit(args, {**_group_input(args, lat, weight), "kmax": kmax}, result, lines)
    return 0


def _cmd_spinorial(args: argparse.Namespace) -> int:
    lat, weight = _need_group_weight(args)
    res = is_spinorial(lat, PiSpec(weight, args.s_wrap))
    result = {
        "spinorial": res.spinorial,
        "c2": res.c2.to_json_obj(lat.gen_names),
        "j": res.valuation,
        "secondary_integral": res.secondary_integral,
    }
    lines = [
        f"spinorial: {'yes' if res.spinorial else 'no'}",
        f"c_2 = {res.c2.render(lat.gen_names)}",
    ]
    if res.valuation is not None:
        lines.append(f"j = {res.valuation}; 2^(-j) * Q2 integral: "
                     f"{'yes' if res.secondary_integral else 'no'}")
    _emit(args, _group_input(args, lat, weight), result, lines)
    return 0


def _cmd_orthotype(args: argparse.Namespace) -> int:
    weight = _need_weight(args)
    if args.group is not None:
        lat = builtin_lattice(args.group)
        kind = lattice_orthogonality_type(lat, weight)
        input_obj = {"group": lat.name, "weight": list(weight)}
    else:
        rs = _need_rs(args)
        kind = orthogonality_type(rs, weight)
        input_obj = {**_system_input(rs), "weight": list(weight)}
    _emit(args, input_obj, {"type": kind}, [kind])
    return 0


def _cmd_oracle_weights(args: argparse.Namespace) -> int:
    rs = _need_rs(args)
    lam = _need_weight(args)
    wm = weight_multiplicities(rs, lam, max_dim=args.max_dim)
    items = sorted(wm.expanded().items(), key=lambda kv: _order_key(kv[0]), reverse=True)
    result = {
        "lambda": list(lam),
        "weights": [{"mu": list(mu), "m": m} for mu, m in items],
    }
    lines = [f"dimension {wm.dimension}"]
    lines += [f"mu = {','.join(str(c) for c in mu)}  m = {m}" for mu, m in items]
    _emit(args, {**_system_input(rs), "weight": list(lam)}, result, lines)
    return 0


# -- verify ------------------------------------------------------------------------


def _verify_checks(args: argparse.Namespace) -> list[tuple[str, Callable[[], None]]]:
    checks: list[tuple[str, Callable[[], None]]] = []

    def oracle_case(kind: str, rank: int, lam: tuple[int, ...], kmax: int):
        def run() -> None:
            rs = build_root_system(kind, rank)
            wm = weight_multiplicities(rs, lam, max_dim=args.max_dim)
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
        for lam in itertools.product(range(3), repeat=rank):
            checks.append(
                (f"oracle {kind}{rank} weight {','.join(map(str, lam))}",
                 oracle_case(kind, rank, lam, 4))
            )

    def triangle_case(group: str, weight: tuple[int, ...], s_wrap: bool):
        def run() -> None:
            lat = builtin_lattice(group)
            pi = PiSpec(weight, s_wrap)
            fac = total_swc_factorization(lat, pi, 6, max_dim=args.max_dim)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run every check; a failed one exits 1, a DomainError (bad input) exits 2."""
    outcomes: list[tuple[str, str | None]] = []
    for name, fn in _verify_checks(args):
        err = None
        try:
            fn()
        except InternalError as exc:
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
    _emit(args, {"command": args.command}, result, lines)
    return 0 if ok else 1


# -- the command table and its parser -------------------------------------------------

#: Keyword arguments of each common flag ``--<name>`` (underscores become dashes),
#: in the order every usage line lists them.  Every command takes --format.
_FLAGS = {
    "type": {"help": "root-system type, e.g. A2 (or A with --rank)"},
    "rank": {"type": int, "help": "root-system rank"},
    "group": {"help": "built-in group name, e.g. SL3, PGL2, Sp4"},
    "weight": {"help": "weight coordinates c1,c2,..."},
    "k": {"type": int, "help": "degree / truncation order"},
    "s_wrap": {"action": "store_true", "help": "use the doubled form: the sum with the dual"},
    "max_dim": {"type": int,
                "help": f"guard on representation dimension (default {DEFAULT_MAX_DIM})"},
    "format": {"choices": ("json", "text")},
    "cache_dir": {"help": "cache directory (default: env WEIGHTCALC_CACHE)"},
}

#: Command name -> (handler, help line, the common flags it takes besides --format).
_DISPATCH = {
    "info": (_cmd_info, "root system / group facts", "type rank group"),
    "fk": (_cmd_fk, "alternating Weyl sum F_k", "type rank k cache_dir"),
    "powersum": (_cmd_multiset, "power sum P_k of the weight multiset", "type rank weight k"),
    "elementary": (partial(_cmd_multiset, key="e"), "elementary symmetric E_k",
                   "type rank weight k"),
    "chern": (_cmd_chern, "Chern classes in lattice generators", "group weight k s_wrap"),
    "chern2": (_cmd_chern2, "closed form for c_2", "group weight"),
    "swc": (_cmd_swc, "Stiefel-Whitney classes", "group weight k s_wrap"),
    "swc-total": (_cmd_swc_total, "total-class factorization",
                  "group weight k s_wrap max_dim"),
    "spinorial": (_cmd_spinorial, "spin-lift decision with certificate", "group weight s_wrap"),
    "orthotype": (_cmd_orthotype, "orthogonal / symplectic / not-self-dual",
                  "type rank group weight"),
    "oracle weights": (_cmd_oracle_weights, "weight multiplicities by Freudenthal recursion",
                       "type rank weight max_dim"),
    "verify": (_cmd_verify, "consistency triangle + oracle grid", "max_dim"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightcalc",
        description="Exact weight-multiset invariants and characteristic "
                    "classes for simple compact groups.",
    )
    parser.add_argument("--version", action="version", version=FINGERPRINT)
    # The one place flag defaults live: subparsers leave absent flags unset.
    parser.set_defaults(**{**dict.fromkeys(_FLAGS), "s_wrap": False,
                           "max_dim": DEFAULT_MAX_DIM, "format": "text"})
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    subparsers = {"": sub}
    for name, (handler, help_line, flags) in _DISPATCH.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:  # first word of a two-word command: the oracle group
            subparsers[group] = sub.add_parser(
                group, help="brute-force reference computations",
            ).add_subparsers(required=True, metavar="WHAT")
        p = subparsers[group].add_parser(leaf, help=help_line,
                                         argument_default=argparse.SUPPRESS)
        for flag, kwargs in _FLAGS.items():
            if flag == "format" or flag in flags.split():
                p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.set_defaults(handler=handler, takes_group="group" in flags.split())
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, check the common flags, and return the handler's exit code."""
    args = _build_parser().parse_args(argv)
    _check_flags(args)
    return args.handler(args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
