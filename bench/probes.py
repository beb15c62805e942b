"""Span wrappers around the public functions of each weightcalc layer.

``install`` swaps traced wrappers into every weightcalc module namespace that
binds one of the functions below and returns the ``Patch`` that removes
them.  Span names are ``<module>.<function>``; the counters are the sizes
the per-layer metrics report.
"""

from __future__ import annotations

import sys

from spans import Patch, Recorder, wrap

#: Public functions traced per layer module.
LAYERS = {
    "rootsys": ["build_root_system"],
    "weylsum": ["fk_evaluated", "fk_direct"],
    "polyalg": ["expand_linear_power", "exact_divide", "mod2_reduce"],
    "powersum": ["power_sums", "elementary_from_power", "product_power_sums"],
    "charclass": ["chern_classes", "swc_restrict", "is_spinorial", "total_swc_factorization"],
    "oracle": [
        "weight_multiplicities",
        "oracle_power_sum",
        "oracle_elementary",
        "character_at_order2",
        "schur_at_signs",
    ],
    "cli": ["_cache_load"],
}


def install(rec: Recorder) -> Patch:
    mods = [m for name, m in sys.modules.items()
            if name == "weightcalc" or name.startswith("weightcalc.")]
    seen_fk: set = set()

    def fk_evaluated_done(args, result):
        rs, mu, k = args
        rec.count("weylsum.fk_evaluated.orbit_terms", len(rs.weyl))
        key = (rs.kind, rs.rank, tuple(mu), k)
        if key in seen_fk:
            rec.count("weylsum.fk_evaluated.repeats")
        seen_fk.add(key)

    def fk_direct_done(args, result):
        rec.count("weylsum.fk_direct.out_terms", len(result.terms))

    def multiplicities_done(args, result):
        rec.count("oracle.dominant_weights", len(result.dominant))
        rec.count("oracle.distinct_weights", len(result.expanded()))

    def cache_load_done(args, result):
        rec.count("cli.cache_lookups")
        if result is not None:
            rec.count("cli.cache_loads")

    after = {
        "fk_evaluated": fk_evaluated_done,
        "fk_direct": fk_direct_done,
        "weight_multiplicities": multiplicities_done,
        "_cache_load": cache_load_done,
    }
    patch = Patch()
    for layer, names in LAYERS.items():
        module = sys.modules[f"weightcalc.{layer}"]
        for name in names:
            orig = getattr(module, name)
            patch.rebind(mods, orig, wrap(rec, f"{layer}.{name}", orig, after.get(name)))

    from weightcalc.rootsys import RootSystem
    from weightcalc.weylsum import FkTable

    weyl = RootSystem.__dict__["weyl"]

    def first_weyl(self):
        if self._weyl is not None:
            return weyl.fget(self)
        with rec.span("rootsys.weyl"):
            elems = weyl.fget(self)
        rec.count("rootsys.weyl.elements", len(elems))
        return elems

    patch.set(RootSystem, "weyl", property(first_weyl, doc=weyl.__doc__))
    build = FkTable.__dict__["build"].__func__
    patch.set(FkTable, "build", classmethod(wrap(rec, "weylsum.FkTable.build", build)))
    return patch
