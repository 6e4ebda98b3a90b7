"""Fault injection for the exit-code contract: every theorem cross-check.

Each `raise InternalInvariantBroken` site in src/wbk is reached once with
the kernel it cross-checks patched through sys.modules (wbk.compose and
others are also names of functions).  A command that reaches the site must
exit 3 with empty stdout and exactly the line `internal error: <message>`
on stderr; a site no command reaches is called from the library.
"""

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import exotic

import wbk
from wbk import InternalInvariantBroken, ValidationError, catalog_get, to_obj
from wbk.cli import main
from wbk.ideals import Check
from wbk.series import SeriesReport


def mod(name):
    return sys.modules[f"wbk.{name}"]


def _full(s):
    return frozenset(range(s.order))


def _gamma_report(terminated, index):
    """A gamma-lower report of the whole set alone, as a patched gamma_series."""
    return lambda s, start=None: SeriesReport("gamma-lower", (_full(s),), terminated, index)


def _raise_key_error(*args):
    raise KeyError(args)


def _compatible_always(add, mul):
    return None


def _write(tmp_path, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _exotic_4(tmp_path):
    """exotic Z4: annihilator index 2, so the sandwich's sums reach a
    nontrivial gamma step."""
    return ["--input", _write(tmp_path, to_obj(exotic(4)))]


# Z2 over Z2 with + connecting by x -> 0 and * by x -> x: both Clifford
# tables are valid and share their idempotents {0, 2}, but 1 + 2 = 2 while
# 1 * 2 = 3; only the compatibility check stands in the way
SPLIT_HOMS = {
    "kind": "dual_weak_brace",
    "order": 4,
    "add": [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 2, 3], [3, 3, 3, 2]],
    "mul": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 2, 3], [3, 2, 3, 2]],
}


# idempotent and commutative, but (0 1) 2 = 2 while 0 (1 2) = 0
NONASSOCIATIVE_MEET = {"kind": "semilattice", "size": 3, "meet": [[0, 1, 0], [1, 1, 2], [0, 2, 2]]}

# associative, but 1 has no pseudo-inverse: (1x)1 = 0 for every x
NULL_PAIR = {"kind": "dual_weak_brace", "order": 2, "add": [[0, 0], [0, 0]], "mul": [[0, 0], [0, 0]]}


def _series_socle_pullback(mp, tmp_path):
    mp.setattr(mod("series"), "_quotient_pullback", lambda s, prev, special, quotients: frozenset())
    return ["series", "socle", "--catalog", "z6_exotic"]


def _series_right_not_descending(mp, tmp_path):
    mp.setattr(mod("series"), "product_set", lambda s, x, y: frozenset({s.order}))
    return ["series", "right", "--catalog", "z6_exotic"]


def _sandwich_stalls(mp, tmp_path):
    mp.setattr(mod("series"), "gamma_series", _gamma_report(False, None))
    return ["sandwich", "--catalog", "c6_trivial"]


def _sandwich_lower(mp, tmp_path):
    mp.setattr(mod("series"), "gamma_series", _gamma_report(True, 0))
    return ["sandwich", "--catalog", "c6_trivial"]


def _sandwich_one_step(mp, tmp_path):
    gam = wbk.gamma_series(catalog_get("c6_trivial").as_dual())
    mp.setattr(mod("series"), "gamma_series", lambda s, start=None: gam)
    mp.setattr(mod("series"), "gamma_step", lambda s, prev: _full(s))
    return ["sandwich", "--catalog", "c6_trivial"]


def _sandwich_sum(mp, tmp_path):
    mp.setattr(mod("series"), "sum_of_ideals", lambda s, i, j: _full(s))
    return ["sandwich", *_exotic_4(tmp_path)]


def _classify_right_index(mp, tmp_path):
    mp.setattr(mod("series"), "right_series", lambda s: SeriesReport("right", (_full(s),), False, None))
    return ["classify", "--catalog", "c6_trivial"]


def _classify_disagree(mp, tmp_path):
    mp.setattr(mod("series"), "gamma_series", _gamma_report(False, None))
    return ["classify", "--catalog", "c6_trivial"]


def _classify_indices(mp, tmp_path):
    mp.setattr(mod("series"), "gamma_series", _gamma_report(True, 2))
    return ["classify", "--catalog", "c6_trivial"]


def _classify_maximum(mp, tmp_path):
    # c6's socle series terminates; sym3's does not
    mp.setattr(mod("series"), "decompose", lambda s: SimpleNamespace(braces=(catalog_get("sym3_trivial"),)))
    return ["classify", "--catalog", "c6_trivial"]


def _classify_assemble(mp, tmp_path):
    mp.setattr(mod("series"), "decompose", lambda s: SimpleNamespace(braces=(catalog_get("c6_trivial"),)))
    return ["classify", "--catalog", "sym3_trivial"]


def _sum_plus_times(mp, tmp_path):
    mp.setattr(wbk.DualWeakBrace, "times", lambda self, a, b: a)
    return ["sandwich", "--catalog", "c6_trivial"]


def _sum_not_ideal(mp, tmp_path):
    # the ideal test fails everywhere, so the summands are not checked
    for name in ("ideals", "series"):
        mp.setattr(mod(name), "_require_ideal", lambda s, x: None)
    mp.setattr(mod("ideals"), "is_ideal", lambda s, x: Check(False, "not_closed", (0, 0)))
    return ["sandwich", "--catalog", "c6_trivial"]


def _quotient_congruence(mp, tmp_path):
    mp.setattr(mod("ideals"), "_first_non_hom", lambda f, pairs: (0, 0, 0))
    return ["quotient", "--catalog", "z6_exotic", "--members", "0,2,4"]


def _quotient_separating(mp, tmp_path):
    mp.setattr(mod("ideals"), "validate_dual_weak_brace", lambda add, mul: catalog_get("z6_exotic").as_dual())
    return ["quotient", "--catalog", "c3_sym3", "--members", ",".join(map(str, range(9)))]


def _enumerate_candidate(mp, tmp_path):
    # only the -i images: the subgroup {0, 3} of Z6 is a candidate
    mp.setattr(mod("ideals"), "_ideal_images", lambda s: [1 << v for v in s.add.inv])
    return ["ideals", "--catalog", "z6_exotic"]


def _compose_idempotent_count(mp, tmp_path):
    mp.setattr(mod("compose"), "validate_dual_weak_brace", lambda add, mul: catalog_get("z6_exotic").as_dual())
    return ["compose", "--catalog", "c3_sym3"]


def _compose_semilattice(mp, tmp_path):
    mp.setattr(wbk.DualWeakBrace, "semilattice", lambda self: SimpleNamespace(meet=None))
    return ["compose", "--catalog", "c3_sym3"]


def _decompose_component(mp, tmp_path):
    mp.setattr(mod("compose"), "_induced", _raise_key_error)
    return ["decompose", "--catalog", "c3_sym3"]


def _decompose_split_homs(mp, tmp_path):
    mp.setattr(mod("braces"), "_check_compatibility", _compatible_always)
    return ["decompose", "--input", _write(tmp_path, SPLIT_HOMS)]


def _decompose_rebuilt(mp, tmp_path):
    mp.setattr(mod("compose"), "_first_non_hom", lambda f, pairs: (0, 0, 0))
    return ["decompose", "--catalog", "c3_sym3"]


def _iso_not_bijective(mp, tmp_path):
    mp.setattr(mod("compose"), "_brace_homs", lambda a, b, injective=False: iter([(0,) * a.order]))
    return ["iso", "--catalog", "c3_sym3", "--catalog2", "c3_sym3"]


def _iso_not_hom(mp, tmp_path):
    # a bijection of Z6 that moves 1 + 1 = 2 to 1 but 1 to 2
    mp.setattr(mod("compose"), "_brace_homs", lambda a, b, injective=False: iter([(0, 2, 1, 3, 4, 5)]))
    return ["iso", "--catalog", "z6_exotic", "--catalog2", "z6_exotic"]


def _hom_search_leaf(mp, tmp_path):
    mp.setattr(mod("tables"), "_hom_test", lambda a, b: lambda f: False)
    mp.setattr(mod("tables"), "_first_non_hom", lambda f, pairs: (0, 1, 0))
    return ["homs", "--catalog", "z6_exotic", "--catalog2", "z6_exotic"]


def _hom_test_alone(mp, tmp_path):
    # the scan still accepts every hom the search yields
    mp.setattr(mod("tables"), "_hom_test", lambda a, b: lambda f: False)
    return ["homs", "--catalog", "z6_exotic", "--catalog2", "z6_exotic"]


def _associativity_reject(mp, tmp_path):
    mp.setattr(mod("tables"), "_least_row_failure", lambda n, rows: None)
    return ["validate", "--input", _write(tmp_path, NONASSOCIATIVE_MEET)]


def _pseudo_inverse_reject(mp, tmp_path):
    # the scan finds one pseudo-inverse where the kernel saw none
    mp.setattr(mod("tables"), "_pseudo_inverse_scan", lambda op, a: [a])
    return ["validate", "--input", _write(tmp_path, NULL_PAIR)]


def _compatibility_reject(mp, tmp_path):
    mp.setattr(mod("braces"), "_least_row_failure", lambda n, rows: None)
    return ["validate", "--input", _write(tmp_path, SPLIT_HOMS)]


def _braid_bytes_reject(mp, tmp_path):
    mp.setattr(mod("solutions"), "_braid_holds", lambda lam, rho: False)
    return ["braid", "--catalog", "z6_exotic"]


# (module of the site, patch returning the argv that reaches it, message)
CLI_CASES = [
    ("series", _series_right_not_descending, "right series is not descending"),
    ("series", _series_socle_pullback, "socle step: elementwise and quotient forms differ"),
    ("series", _sandwich_stalls, "a valid annihilator series exists but a canonical series stalls"),
    ("series", _sandwich_lower, "lower bound of the sandwich fails"),
    ("series", _sandwich_one_step, "one-step gamma containment fails"),
    ("series", _sandwich_sum, "gamma of a sum differs from sum of gammas"),
    ("series", _classify_right_index, "socle-nilpotent structure fails right-index bound"),
    ("series", _classify_disagree, "upper and lower annihilator series disagree"),
    ("series", _classify_indices, "upper and lower annihilator indices differ"),
    ("series", _classify_maximum, "socle index is not the component maximum"),
    ("series", _classify_assemble, "component socle indices do not assemble"),
    ("ideals", _sum_plus_times, "sum of ideals: {a+b} differs from {a*b}"),
    ("ideals", _sum_not_ideal, "sum of ideals is not an ideal: not_closed (0, 0)"),
    ("ideals", _quotient_congruence, "relation is not a congruence for this subset"),
    ("ideals", _quotient_separating, "quotient congruence is not idempotent separating"),
    ("ideals", _enumerate_candidate, "exhaustive candidate is not an ideal"),
    ("compose", _compose_idempotent_count, "composed structure has wrong idempotent count"),
    ("compose", _compose_semilattice, "composed idempotents do not reproduce the semilattice"),
    ("compose", _decompose_component, "component not closed under operation"),
    ("compose", _decompose_split_homs, "a + e and a * e disagree on a comparable pair"),
    (
        "compose",
        _decompose_rebuilt,
        "rebuilt components or homs fail validation: not_a_hom witness=((0, 1), (0, 0))",
    ),
    ("compose", _iso_not_bijective, "assembled isomorphism is not a bijection"),
    ("compose", _iso_not_hom, "assembled isomorphism fails on a pair"),
    ("tables", _hom_search_leaf, "hom closure produced a non-hom at (0, 1)"),
    ("tables", _hom_test_alone, "bytes hom test rejects a hom the scan accepts"),
    ("tables", _associativity_reject, "associativity kernel rejects a table the row scan accepts"),
    ("tables", _pseudo_inverse_reject, "pseudo-inverse kernel rejects an element the scan accepts"),
    ("braces", _compatibility_reject, "compatibility kernel rejects a table pair the row scan accepts"),
    ("solutions", _braid_bytes_reject, "braid kernel rejects a solution the row scan accepts"),
]


def _cases(cases):
    """Parametrize over (patch, message), each case named after its patch."""
    return pytest.mark.parametrize(
        "patch, message", [case[1:] for case in cases], ids=[case[1].__name__[1:] for case in cases]
    )


@_cases(CLI_CASES)
def test_cross_check_failure_exits_3_with_one_line(patch, message, capsys, monkeypatch, tmp_path):
    argv = patch(monkeypatch, tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"internal error: {message}\n")


def _opposite(mp):
    def reject(add, mul):
        raise ValidationError("compatibility", (0, 0, 0))

    mp.setattr(mod("braces"), "_check_compatibility", reject)
    return lambda: catalog_get("z6_exotic").as_dual().opposite()


def _image(mp):
    mp.setattr(mod("ideals"), "is_sub_dual_weak_brace", lambda t, x: Check(False, "not_closed", (0, 0)))
    z6 = catalog_get("z6_exotic").as_dual()
    return lambda: wbk.image(z6, z6, range(6))


def _slice(mp):
    s = wbk.compose(catalog_get("c3_sym3"))
    is_ideal = mod("ideals").is_ideal

    def components_fail(t, x):
        # the whole structure keeps its real test
        return is_ideal(t, x) if t is s else Check(False, "not_closed", (0, 0))

    mp.setattr(mod("ideals"), "is_ideal", components_fail)
    return lambda: wbk.ideal_decomposition(s, range(9))


def _slice_hom(mp):
    s = wbk.compose(catalog_get("c3_sym3"))
    spec = wbk.decompose(s)
    moved = replace(spec, homs={k: (1,) * len(f) for k, f in spec.homs.items()})
    mp.setattr(mod("ideals"), "decompose", lambda t: moved)
    return lambda: wbk.ideal_decomposition(s, s.idempotents)


def _sandwich_upper(mp):
    s = catalog_get("c6_trivial").as_dual()
    least = frozenset(s.idempotents)
    mp.setattr(
        mod("series"), "_upper_series",
        lambda t, two_sided, quotients: SeriesReport("annihilator-upper", (least,), True, 0),
    )
    return lambda: wbk.verify_sandwich(s, (least, _full(s)))


# sites no command reaches: opposite, image and ideal_decomposition are
# library calls, and the sandwich command checks the annihilator series
# against itself, so its upper bound holds there by construction
LIBRARY_CASES = [
    ("braces", _opposite, "opposite failed validation: compatibility witness=(0, 0, 0)"),
    ("ideals", _image, "hom image is not a sub-brace: not_closed (0, 0)"),
    ("ideals", _slice, "component slice is not an ideal of its component: not_closed"),
    ("ideals", _slice_hom, "connecting hom leaves the ideal slices"),
    ("series", _sandwich_upper, "upper bound of the sandwich fails"),
]


@_cases(LIBRARY_CASES)
def test_library_only_cross_check_failure_raises(patch, message, monkeypatch):
    call = patch(monkeypatch)
    with pytest.raises(InternalInvariantBroken) as exc:
        call()
    assert str(exc.value) == message


def test_the_sweep_covers_every_site():
    src = Path(wbk.__file__).parent
    sites = Counter({f.stem: f.read_text(encoding="utf-8").count("raise InternalInvariantBroken")
                     for f in src.glob("*.py")})
    swept = Counter(module for module, *_ in CLI_CASES + LIBRARY_CASES)
    assert +sites == swept
