"""The shared input checks of ``errors``, and that no other module writes its own.

Also that the Weyl denominators d and d-vee are built by their two builders alone,
evaluated at a point by their two evaluators alone, that the inverse Killing
form is scaled to integer rows in ``rootsys`` alone, that every substitution
is given an image for each variable, that ``charclass`` reads its order-2
characters from its own table, that the inverse Killing form is read in one
function (``powersum._casimir_ratio``), and that the oracle builds its
binomial-pair series in one function.  Also that every division that must come
out whole goes through ``errors.exact_quotient``, with no remainder test or
integrality scan of its own elsewhere, and that ``charclass`` reads
the engine through ``powersum`` alone and changes to lattice generators in
``chern_classes`` alone.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from weightcalc import charclass, errors, oracle, powersum
from weightcalc.charclass import PiSpec, builtin_lattice, chern_classes, lattice_contains
from weightcalc.errors import DomainError, InternalError, check_coordinates, exact_quotient, is_int
from weightcalc.oracle import weight_multiplicities
from weightcalc.powersum import power_sums
from weightcalc.rootsys import build_root_system


def _bool_checks(source: str) -> list[int]:
    """Lines that call ``isinstance`` with ``bool`` as the class or one of the classes."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2:
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(c, "id", None) == "bool" for c in classes):
                lines.append(node.lineno)
    return sorted(lines)


def test_int_check_lives_in_errors_alone():
    package = Path(errors.__file__).parent
    found = {p.name: _bool_checks(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    assert found.pop("errors.py")  # the one check is there
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the check itself finds each way of writing one
    assert _bool_checks(
        "ok = isinstance(c, int)\n"
        "bad = isinstance(c, bool)\n"
        "worse = not isinstance(c, (int, bool))\n"
        "fine = type(c) is int\n"
    ) == [2, 3]


def _remainder_raises(source: str) -> list[int]:
    """Lines of each ``if`` that tests a ``divmod`` remainder of its function and raises.

    Also each ``if`` that reads a ``.denominator`` and raises ``InternalError``:
    an integrality scan is the same check written after the division.
    """
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        rems = {node.targets[0].elts[1].id for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _calls(node.value, "divmod")
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.targets[0].elts[1], ast.Name)}
        for node in ast.walk(func):
            if not isinstance(node, ast.If):
                continue
            raises = [n for s in node.body for n in ast.walk(s) if isinstance(n, ast.Raise)]
            tested = list(ast.walk(node.test))
            if raises and any(isinstance(n, ast.Name) and n.id in rems for n in tested) \
                    or any(isinstance(n, ast.Attribute) and n.attr == "denominator"
                           for n in tested) \
                    and any(getattr(n, "id", getattr(n, "attr", None)) == "InternalError"
                            for r in raises for n in ast.walk(r)):
                lines.add(node.lineno)
    return sorted(lines)


def test_exact_quotients_live_in_errors_alone():
    package = Path(errors.__file__).parent
    found = {p.name: _remainder_raises(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    assert found.pop("errors.py")  # the one check is there
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the check itself finds an inline check, and passes a rational result and a filter
    assert _remainder_raises(
        "def inline(a, b):\n"
        "    q, rem = divmod(a, b)\n"
        "    if rem:\n"
        "        raise InternalError('not whole')\n"
        "    return q\n"
        "def in_place(v, f):\n"
        "    for k in range(len(v)):\n"
        "        v[k], r = divmod(v[k], f)\n"
        "        if r or v[k] < 0:\n"
        "            raise InternalError('not whole')\n"
        "def _ratio(num, den):\n"
        "    q, rem = divmod(num, den)\n"
        "    return Fraction(num, den) if rem else q\n"
        "def _cauchy_binet(m, start, step):\n"
        "    for s in start:\n"
        "        size, rem = divmod(m - s, step)\n"
        "        if rem or size < 0:\n"
        "            continue\n"
    ) == [3, 9]
    # and an integrality scan after a division, but not a Fraction collapsed or refused as input
    assert _remainder_raises(
        "def _require_integer(f, what):\n"
        "    for e, c in f.terms.items():\n"
        "        if isinstance(c, Fraction) and c.denominator != 1:\n"
        "            raise InternalError(f'non-integer coefficient {c} in {what}')\n"
        "    return f\n"
        "def scan(values):\n"
        "    if any(Fraction(v).denominator > 1 for v in values):\n"
        "        raise errors.InternalError('not whole')\n"
        "def _norm(c):\n"
        "    if type(c) is Fraction and c.denominator == 1:\n"
        "        return c.numerator\n"
        "    return c\n"
        "def reduce(c):\n"
        "    if c.denominator != 1:\n"
        "        raise DomainError('non-integer coefficient under mod-2 reduction')\n"
    ) == [3, 7]


def _attrs(tree) -> set[str]:
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _denominator_builders(source: str) -> list[str]:
    """Functions that call ``a_linear`` or ``y_linear`` in a loop over the positive (co)roots."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            loops = getattr(node, "generators", [node] if isinstance(node, ast.For) else [])
            if any(_attrs(loop.iter) & {"positive_roots", "positive_coroots"} for loop in loops) \
                    and _attrs(node) & {"a_linear", "y_linear"}:
                found.add(func.name)
    return sorted(found)


def test_weyl_denominators_are_built_in_one_place():
    package = Path(errors.__file__).parent
    found = {p.name: _denominator_builders(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    assert {name: funcs for name, funcs in found.items() if funcs} == {
        "weylsum.py": ["coweyl_denominator", "weyl_denominator"]}
    # the check itself finds each way of writing one
    assert _denominator_builders(
        "def weyl_denominator(rs):\n"
        "    return prod(BiPoly.y_linear(al) for al in rs.positive_roots)\n"
        "def listed(rs):\n"
        "    return [BiPoly.a_linear(av, ny=2) for av in rs.positive_coroots]\n"
        "def looped(rs, f):\n"
        "    for al in rs.positive_roots:\n"
        "        f = f * BiPoly.y_linear(al)\n"
        "def values(rs, nu):\n"
        "    return prod(sum(map(mul, al, nu)) for al in rs.positive_roots)\n"
        "def killing_rows(rs):\n"
        "    return [BiPoly.a_linear(row) for row in rs.killing_dual]\n"
    ) == ["listed", "looped", "weyl_denominator"]


def _pairing_products(source: str) -> list[str]:
    """Functions that multiply values over the positive (co)roots, other than linear factors.

    A product is a ``prod`` call over a comprehension, or a ``*=`` in a for loop,
    that iterates over ``positive_roots`` or ``positive_coroots``; one that builds
    ``a_linear`` or ``y_linear`` polynomials is a symbolic denominator, not a value.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and "prod" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
                loops = [g for arg in node.args for n in ast.walk(arg)
                         for g in getattr(n, "generators", [])]
            elif isinstance(node, ast.For) and any(
                    isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mult)
                    for n in ast.walk(node)):
                loops = [node]
            else:
                continue
            if any(_attrs(loop.iter) & {"positive_roots", "positive_coroots"} for loop in loops) \
                    and not _attrs(node) & {"a_linear", "y_linear"}:
                found.add(func.name)
    return sorted(found)


def test_denominators_at_a_point_are_evaluated_in_one_place():
    package = Path(errors.__file__).parent
    found = {p.name: _pairing_products(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    assert {name: funcs for name, funcs in found.items() if funcs} == {
        "weylsum.py": ["coweyl_denominator_at", "weyl_denominator_at"]}
    # the check itself finds each way of writing one, and passes the symbolic builders
    assert _pairing_products(
        "def both(rs, mu, nu):\n"
        "    return (prod(sum(map(mul, al, nu)) for al in rs.positive_roots),\n"
        "            math.prod(sum(map(mul, av, mu)) for av in rs.positive_coroots))\n"
        "def at_delta(rs):\n"
        "    return prod(sum(av) for av in rs.positive_coroots)\n"
        "def dimension(rs, lam):\n"
        "    return prod(sum((c + 1) * x for c, x in zip(lam, av)) for av in rs.positive_coroots)\n"
        "def looped(rs, nu):\n"
        "    d = 1\n"
        "    for al in rs.positive_roots:\n"
        "        x = sum(map(mul, al, nu))\n"
        "        d *= x\n"
        "def weyl_denominator(rs):\n"
        "    return prod((BiPoly.y_linear(al) for al in rs.positive_roots), start=one)\n"
        "def parity(rs, lam):\n"
        "    return sum(sum(map(mul, lam, av)) for av in rs.positive_coroots) % 2\n"
        "def series(rs, s):\n"
        "    for al in rs.positive_roots:\n"
        "        s = [c * sum(al) for c in s]\n"
    ) == ["at_delta", "both", "dimension", "looped"]


def _integer_form_scalings(source: str) -> list[str]:
    """Functions that pass ``killing_dual`` to ``_integer_rows`` or ``_common_denominator``."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and {getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)} \
                    & {"_integer_rows", "_common_denominator"} \
                    and any(getattr(n, "id", getattr(n, "attr", None)) == "killing_dual"
                            for arg in node.args for n in ast.walk(arg)):
                found.add(func.name)
    return sorted(found)


def test_inverse_killing_form_is_scaled_to_integers_in_one_place():
    package = Path(errors.__file__).parent
    found = {p.name: _integer_form_scalings(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    assert {name: funcs for name, funcs in found.items() if funcs} == {
        "rootsys.py": ["build_root_system"]}
    # the check itself finds each way of writing one, and passes the field's readers
    assert _integer_form_scalings(
        "def build(killing_dual):\n"
        "    return _integer_rows(killing_dual)[1]\n"
        "def form(rs):\n"
        "    return polyalg._integer_rows(rs.killing_dual)[1]\n"
        "def flat(rs):\n"
        "    return _common_denominator([x for row in rs.killing_dual for x in row])\n"
        "def reader(rs):\n"
        "    return rs.killing_dual_rows, _integer_rows(inverse)\n"
    ) == ["build", "flat", "form"]


def _substitution_calls(source: str) -> list[tuple[int, bool]]:
    """(line, whether it passes arity and both image blocks, none of them None) per call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "_substitution" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            args = [*node.args, *(k.value for k in node.keywords)]
            found.append((node.lineno, len(args) == 4 and not any(
                isinstance(a, ast.Constant) and a.value is None for a in args)))
    return found


def test_every_substitution_gets_both_image_blocks():
    package = Path(errors.__file__).parent
    calls = {p.name: _substitution_calls(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    assert {name for name, found in calls.items() if found} == {
        "charclass.py", "polyalg.py", "weylsum.py"}
    assert all(ok for found in calls.values() for _, ok in found)
    # the check itself finds a kept block and a missing one
    assert _substitution_calls(
        "whole = _substitution(n, n, a_images, y_images)\n"
        "kept = polyalg._substitution(n, n, None, y_images)\n"
        "short = _substitution(n, n, y_images=y_images)\n"
    ) == [(1, True), (2, False), (3, False)]


def _order2_and_form_readers(source: str) -> tuple[list[str], list[str]]:
    """Functions that call ``character_at_order2``, and functions that read ``.killing_dual``."""
    calls, reads = set(), set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and "character_at_order2" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.add(func.name)
            if isinstance(node, ast.Attribute) and node.attr == "killing_dual":
                reads.add(func.name)
    return sorted(calls), sorted(reads)


def test_charclass_has_one_character_table_and_one_casimir_ratio():
    source = Path(charclass.__file__).read_text(encoding="utf-8")
    assert _order2_and_form_readers(source) == ([], [])
    # the one Casimir ratio lives in powersum, beside the P_2 it scales
    source = Path(powersum.__file__).read_text(encoding="utf-8")
    assert _order2_and_form_readers(source) == ([], ["_casimir_ratio"])
    # the check itself finds each way of writing one, and passes the integer rows
    assert _order2_and_form_readers(
        "def table(lat, wm, signs):\n"
        "    return character_at_order2(wm, signs, basis=lat.basis)\n"
        "def qualified(wm, signs):\n"
        "    return [oracle.character_at_order2(wm, s) for s in signs]\n"
        "def _casimir_ratio(rs, lam, degree):\n"
        "    return rs.killing_dual\n"
        "def shift(rs, lam):\n"
        "    kd = rs.killing_dual\n"
        "def rows(rs):\n"
        "    return rs.killing_dual_rows\n"
    ) == (["qualified", "table"], ["_casimir_ratio", "shift"])


def _weylsum_imports_and_generator_changes(source: str) -> tuple[list[int], list[str]]:
    """Lines that import ``weylsum`` or from it; functions that call ``_scaled_to_generators``."""
    tree = ast.parse(source)
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and "weylsum" in [*(getattr(node, "module", None) or "").split("."),
                                 *(part for a in node.names for part in a.name.split("."))]]
    changes = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               and any(_calls(n, "_scaled_to_generators") for n in ast.walk(func))}
    return sorted(imports), sorted(changes)


def test_charclass_reads_c2_from_the_chern_path_alone():
    source = Path(charclass.__file__).read_text(encoding="utf-8")
    assert _weylsum_imports_and_generator_changes(source) == ([], ["chern_classes"])
    # the check itself finds each way of importing the engine, and each caller
    assert _weylsum_imports_and_generator_changes(
        "from .weylsum import q2_poly\n"
        "from . import oracle, weylsum\n"
        "import weightcalc.weylsum as ws\n"
        "from weightcalc.weylsum import fk_scalar\n"
        "from .powersum import power_sums\n"
        "from .oracle import weight_multiplicities\n"
        "def chern_classes(lat, power):\n"
        "    return [_scaled_to_generators(lat, f) for f in power]\n"
        "def _q2_in_generators(lat):\n"
        "    return _scaled_to_generators(lat, q2_poly(lat.root_system()))\n"
        "def qualified(lat, f):\n"
        "    return charclass._scaled_to_generators(lat, f)\n"
        "def chern2_closed(lat, lam):\n"
        "    return chern_classes(lat, lam, 2).c[2]\n"
    ) == ([1, 2, 3, 4], ["_q2_in_generators", "chern_classes", "qualified"])


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _series_builders_and_readers(source: str) -> tuple[list[str], list[str]]:
    """Functions that build a binomial series, and functions that call ``_pair_coefficients``.

    A builder calls ``comb``, or runs a coefficient recurrence: a loop that
    appends to a list it also reads by index, and divides (``exact_quotient``
    counts as a division).
    """
    builds, reads = set(), set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if _calls(node, "comb"):
                builds.add(func.name)
            if _calls(node, "_pair_coefficients"):
                reads.add(func.name)
            if isinstance(node, (ast.For, ast.While)):
                body = list(ast.walk(node))
                grown = {n.func.value.id for n in body if _calls(n, "append")
                         and isinstance(getattr(n.func, "value", None), ast.Name)}
                indexed = {n.value.id for n in body
                           if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)}
                if grown & indexed and any(
                        _calls(n, "divmod") or _calls(n, "exact_quotient")
                        or isinstance(n, ast.BinOp) and isinstance(n.op, (ast.FloorDiv, ast.Div))
                        for n in body):
                    builds.add(func.name)
    return sorted(builds), sorted(reads)


def test_oracle_builds_the_binomial_pair_series_in_one_place():
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    assert _series_builders_and_readers(source) == (
        ["_pair_coefficients"], ["_series_at", "schur_at_signs"])
    # the check itself finds each way of writing one, and passes other recurrences
    assert _series_builders_and_readers(
        "def binomials(n, kmax):\n"
        "    return [math.comb(n, i) for i in range(kmax + 1)]\n"
        "def inline(a, b, kmax):\n"
        "    c = [1, a - b]\n"
        "    for j in range(1, kmax):\n"
        "        q, rem = divmod((a - b) * c[j] + (j - 1 - a - b) * c[j - 1], j + 1)\n"
        "        c.append(q)\n"
        "def ratio(n, kmax):\n"
        "    c = [1]\n"
        "    for i in range(kmax):\n"
        "        c.append(c[i] * (n - i) // (i + 1))\n"
        "def checked(a, b, kmax):\n"
        "    c = [1, a - b]\n"
        "    for j in range(1, kmax):\n"
        "        c.append(exact_quotient((a - b) * c[j] - a * c[j - 1], j + 1, 'not whole'))\n"
        "def _series_at(pairing, a, b, kmax):\n"
        "    return [oracle._pair_coefficients(x, z, kmax) for x, z in zip(a, b)]\n"
        "def stirling(kmax):\n"
        "    s = [[1]]\n"
        "    for j in range(kmax):\n"
        "        s.append([s[j][i - 1] - j * s[j][i] for i in range(1, j + 1)])\n"
    ) == (["binomials", "checked", "inline", "ratio"], ["_series_at"])


def _binomial_convolutions(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """Functions that sum binom(k, i)-weighted products of two sequences, and the calls to them.

    A convolution calls ``comb(k, i)`` on two names and reads one sequence at
    index i and one at k - i.  Each module of ``sources`` is named by its
    key; the calls are given as "module.caller -> callee".
    """
    defs, calls = set(), set()
    funcs = [(module, func) for module, text in sources.items()
             for func in ast.walk(ast.parse(text)) if isinstance(func, ast.FunctionDef)]
    for module, func in funcs:
        nodes = list(ast.walk(func))
        indices = {ast.unparse(n.slice) for n in nodes if isinstance(n, ast.Subscript)}
        for n in nodes:
            if _calls(n, "comb") and len(n.args) == 2 and all(isinstance(a, ast.Name) for a in n.args):
                k, i = (a.id for a in n.args)
                if {i, f"{k} - {i}"} <= indices:
                    defs.add((module, func.name))
    names = {name for _, name in defs}
    for module, func in funcs:
        for n in ast.walk(func):
            callee = isinstance(n, ast.Call) and (getattr(n.func, "id", None) or getattr(n.func, "attr", None))
            if callee in names:
                calls.add(f"{module}.{func.name} -> {callee}")
    return sorted(f"{module}.{name}" for module, name in defs), sorted(calls)


def test_power_sums_are_convolved_in_one_place():
    # the sum-multiset rule P_k = sum_i binom(k, i) P_i Q_(k-i) exists once, and GL's central
    # character in chern_classes goes through it by its public name
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(powersum.__file__).parent.glob("*.py"))}
    assert _binomial_convolutions(sources) == (
        ["powersum.product_power_sums"], ["charclass.chern_classes -> product_power_sums"])
    # the check itself finds a second copy and a call to it, and passes the triangular solve
    assert _binomial_convolutions({
        "powersum":
            "def product_power_sums(p, q, kmax):\n"
            "    return [sum(comb(k, i) * p[i] * q[k - i] for i in range(k + 1))\n"
            "            for k in range(kmax + 1)]\n"
            "def _binomial_convolution(p, q, kmax):\n"
            "    for k in range(kmax + 1):\n"
            "        for j in range(k + 1):\n"
            "            b = comb(k, j)\n"
            "            _mul_into(acc, {e: b * c for e, c in p[j].terms.items()}, q[k - j].terms)\n"
            "def _triangular_solve(n, f_lam, f_del, divide):\n"
            "    for i, num in enumerate(f_lam):\n"
            "        for k in range(i):\n"
            "            num = num - out[k] * f_del[i - k] * comb(n + i, k)\n",
        "charclass":
            "def chern_classes(lattice, pi_spec, kmax):\n"
            "    return powersum.product_power_sums(power, central, kmax)\n"
            "def _central_shift(power, central, top):\n"
            "    return _binomial_convolution(power, central, top)\n",
    }) == (["powersum._binomial_convolution", "powersum.product_power_sums"],
           ["charclass._central_shift -> _binomial_convolution",
            "charclass.chern_classes -> product_power_sums"])


def test_exact_quotient_formats_its_message_only_on_a_remainder():
    def message(num, den):
        calls.append((num, den))
        return f"{Fraction(num, den)} is not whole"

    calls = []
    assert exact_quotient(12, 4, message, 12, 4) == 3 and calls == []
    with pytest.raises(InternalError, match="^7/2 is not whole$"):
        exact_quotient(7, 2, message, 7, 2)
    with pytest.raises(InternalError, match="^c_3 / 2$"):
        exact_quotient(Fraction(1, 2), 1, "c_%d / %d", 3, 2)  # a Fraction leaves a remainder


def test_is_int_refuses_bools_and_other_numbers():
    assert is_int(0) and is_int(-3) and is_int(1 << 70)
    assert not any(map(is_int, [True, False, 1.0, Fraction(2), "1", None]))


def test_check_coordinates_checks_the_length_then_the_entries():
    assert check_coordinates([1, 0], 2) == (1, 0)
    with pytest.raises(DomainError, match="weight has 3 coordinates, expected 2 for A2"):
        check_coordinates([True, 0, 0], 2, where=" for A2")
    with pytest.raises(DomainError, match="weight coordinates must be integers"):
        check_coordinates([True, 0], 2)
    with pytest.raises(DomainError, match="weight coordinates must be integers"):
        check_coordinates([Fraction(1), 0], 2)
    assert check_coordinates((Fraction(1, 2), 0), 2, exact=True) == (Fraction(1, 2), 0)
    for bad in (True, 0.5):
        with pytest.raises(DomainError, match="coweight coordinates must be int or Fraction"):
            check_coordinates((bad, 0), 2, "coweight", exact=True)


def test_weight_that_is_not_a_sequence_is_a_domain_error():
    with pytest.raises(DomainError, match="weight must be a sequence of coordinates, got 5"):
        check_coordinates(5, 2)
    lat, rs = builtin_lattice("SL3"), build_root_system("A", 2)
    for call in (lambda: chern_classes(lat, 5), lambda: chern_classes(lat, PiSpec(5)),
                 lambda: power_sums(rs, 5, 2), lambda: weight_multiplicities(rs, 5)):
        with pytest.raises(DomainError, match="must be a sequence of coordinates"):
            call()
    for group in ("SL3", "GL3", "PGL2"):
        assert lattice_contains(builtin_lattice(group), 5) is False
