"""Series chains, the sandwich theorem checks, and classification."""

from collections import Counter

import pytest
from conftest import exotic

import wbk
from wbk import InternalInvariantBroken, NotAnIdeal, series
from wbk.cli import main
from wbk.errors import NotAnnihilatorSeries
from wbk.series import _quotient_pullback, _quotients, gamma_step

ELEMENTARY_8 = [[a ^ b for b in range(8)] for a in range(8)]


def sizes(report):
    return [len(x) for x in report.chain]


def test_z6_series(z6):
    r = wbk.right_series(z6)
    assert sizes(r) == [6, 3, 1] and r.terminated and r.index == 2
    assert r.chain[1] == frozenset({0, 2, 4})

    so = wbk.socle_series(z6)
    assert sizes(so) == [1, 3, 6] and so.terminated and so.index == 2

    an = wbk.annihilator_series(z6)
    assert sizes(an) == [1] and not an.terminated and an.index is None

    ga = wbk.gamma_series(z6)
    assert sizes(ga) == [6, 3] and not ga.terminated
    assert ga.chain[-1] == frozenset({0, 2, 4})


def test_glued_series(c3_sym3, c2_c4):
    r = wbk.right_series(c3_sym3)
    assert sizes(r) == [9, 2] and r.index == 1
    assert not wbk.socle_series(c3_sym3).terminated
    assert not wbk.annihilator_series(c3_sym3).terminated
    ga = wbk.gamma_series(c3_sym3)
    assert sizes(ga) == [9, 4] and ga.chain[-1] == frozenset({0, 3, 6, 7})

    for rep in (
        wbk.right_series(c2_c4),
        wbk.socle_series(c2_c4),
        wbk.annihilator_series(c2_c4),
        wbk.gamma_series(c2_c4),
    ):
        assert rep.terminated and rep.index == 1, rep.kind


def test_sym3_right_nilpotent_but_socle_stalls():
    s = wbk.catalog_get("sym3_trivial").as_dual()
    r = wbk.right_series(s)
    assert r.terminated and r.index == 1  # all dots vanish on a trivial brace
    so = wbk.socle_series(s)
    assert not so.terminated
    assert so.chain == (frozenset({0}),)  # Soc is the group center: stalls at once
    ga = wbk.gamma_series(s)
    assert not ga.terminated
    assert ga.chain[-1] == frozenset({0, 3, 4})  # commutators generate A3


def test_series_members_are_ideals(all_structures):
    for name, s in all_structures:
        for rep in (
            wbk.right_series(s),
            wbk.socle_series(s),
            wbk.annihilator_series(s),
            wbk.gamma_series(s),
        ):
            for member in rep.chain:
                assert wbk.is_ideal(s, member), (name, rep.kind)


def test_gamma_series_custom_start(z6, c2_c4):
    # odd-by-even dots land back in the even ideal, so the chain stalls there
    rep = wbk.gamma_series(z6, start={0, 2, 4})
    assert sizes(rep) == [3] and not rep.terminated
    rep = wbk.gamma_series(c2_c4, start=c2_c4.idempotents)
    assert rep.terminated and rep.index == 0
    with pytest.raises(NotAnIdeal):
        wbk.gamma_series(z6, start={0, 3})


def test_verify_sandwich_passes(c2_c4):
    ann = wbk.annihilator_series(c2_c4)
    rep = wbk.verify_sandwich(c2_c4, ann.chain)
    assert rep.ok
    assert rep.gamma_chain[-1] == frozenset(c2_c4.idempotents)


def test_verify_sandwich_rejects_bad_chains(z6, c2_c4):
    e = frozenset(c2_c4.idempotents)
    full = frozenset(range(c2_c4.order))
    with pytest.raises(NotAnnihilatorSeries) as exc:
        wbk.verify_sandwich(c2_c4, [full])
    assert exc.value.position == 0
    with pytest.raises(NotAnnihilatorSeries):
        wbk.verify_sandwich(c2_c4, [e])
    # jumping straight from E to S is too fast here: S/E has trivial annihilator
    with pytest.raises(NotAnnihilatorSeries) as exc:
        wbk.verify_sandwich(z6, [frozenset({0}), frozenset(range(6))])
    assert exc.value.position == 0


def test_verify_sandwich_rejects_non_ideal_and_descending_members():
    # on the trivial brace on Klein4 every subgroup is an ideal, {0, 1, 2}
    # is not a subgroup, and {0, 1} does not lie in {0, 2}
    s = wbk.catalog_get("klein4_trivial").as_dual()
    e, full = frozenset({0}), frozenset(range(4))
    with pytest.raises(NotAnnihilatorSeries) as exc:
        wbk.verify_sandwich(s, [e, frozenset({0, 1, 2}), full])
    assert exc.value.position == 1 and exc.value.witness == ("not_closed", (1, 2))
    with pytest.raises(NotAnnihilatorSeries) as exc:
        wbk.verify_sandwich(s, [e, frozenset({0, 1}), frozenset({0, 2}), full])
    assert exc.value.position == 2 and exc.value.witness == ("not_ascending",)


def test_verify_sandwich_z6_refines(z6):
    # the even ideal is annihilating step by step? no: Ann(z6) = {0}, so even
    # the first step fails; there is no annihilator series at all
    with pytest.raises(NotAnnihilatorSeries):
        wbk.verify_sandwich(
            z6, [frozenset({0}), frozenset({0, 2, 4}), frozenset(range(6))]
        )


def test_gamma_step_monotone(z6, c3_sym3):
    for s in (z6, c3_sym3):
        full = frozenset(range(s.order))
        g1 = gamma_step(s, full)
        g2 = gamma_step(s, g1)
        assert g2 <= g1 <= full


def test_classify_z6(z6):
    cls = wbk.classify(z6)
    assert cls.order == 6 and cls.idempotent_count == 1
    assert cls.is_skew and cls.is_brace
    assert cls.right.index == 2
    assert cls.socle.index == 2
    assert not cls.annihilator.terminated
    assert not cls.gamma.terminated
    assert len(cls.components) == 1
    assert cls.components[0].right.index == 2


def test_classify_glued(c3_sym3, c2_c4):
    cls = wbk.classify(c3_sym3)
    assert not cls.is_skew and not cls.is_brace
    assert cls.right.index == 1
    assert [c.order for c in cls.components] == [3, 6]
    # each component is a skew brace, classified on its own
    for c in cls.components:
        assert isinstance(c, wbk.Classification) and c.components == ()
        assert c.idempotent_count == 1 and c.is_skew
    assert [c.is_brace for c in cls.components] == [True, False]
    # the sym3 component blocks every ascending series
    assert not cls.components[1].socle.terminated
    assert not cls.socle.terminated

    cls = wbk.classify(c2_c4)
    assert cls.annihilator.index == 1
    assert all(c.annihilator.index == 1 for c in cls.components)


def test_classify_all(all_structures):
    # the internal index cross-checks run on every structure and component
    for name, s in all_structures:
        wbk.classify(s)


def _memo_corpus(c3_sym3):
    """Exotic Z_n up to 16, (Z2)^3 and a two-component glued structure."""
    out = [(f"exotic Z{n}", exotic(n).as_dual()) for n in range(2, 17, 2)]
    out.append(("(Z2)^3", wbk.validate_skew_brace(ELEMENTARY_8, ELEMENTARY_8).as_dual()))
    return out + [("c3_sym3", c3_sym3)]


def _stepped(rep):
    """The chain members an upper series took a step from."""
    return rep.chain[:-1] if rep.terminated else rep.chain


@pytest.fixture
def built(monkeypatch):
    """Counts the quotients the series module builds, per (structure, ideal)."""
    counts = Counter()
    real = series.quotient

    def counting(s, ideal):
        counts[s, frozenset(ideal)] += 1
        return real(s, ideal)

    monkeypatch.setattr(series, "quotient", counting)
    return counts


def test_classify_builds_each_quotient_once(built, c3_sym3):
    for name, s in _memo_corpus(c3_sym3):
        built.clear()
        cls = wbk.classify(s)
        # a skew brace is its own single component, classified once
        structures = [(s, cls)] + [
            (b.as_dual(), c) for b, c in zip(wbk.decompose(s).braces, cls.components)
        ]
        want = {(t, x) for t, c in structures for rep in (c.socle, c.annihilator) for x in _stepped(rep)}
        assert set(built) == want, name
        assert max(built.values()) == 1, (name, built.most_common(1))


def test_sandwich_builds_each_quotient_once(built, c3_sym3):
    checked = 0
    for name, s in _memo_corpus(c3_sym3):
        ann = wbk.annihilator_series(s)
        if not ann.terminated:
            continue
        built.clear()
        wbk.verify_sandwich(s, ann.chain)
        # the pullback loop and the internal annihilator series share them
        assert set(built) == {(s, x) for x in ann.chain[:-1]}, name
        assert max(built.values()) == 1, name
        checked += 1
    assert checked >= 3


def test_sandwich_command_builds_each_quotient_once(built, c3_sym3, tmp_path, capsys):
    # the command's own annihilator series and the check share one memo
    path = tmp_path / "in.json"
    for name, s in _memo_corpus(c3_sym3):
        path.write_text(wbk.dumps(s), encoding="utf-8")
        ann = wbk.annihilator_series(s)
        built.clear()
        assert main(["sandwich", "--input", str(path)]) == (0 if ann.terminated else 1), name
        assert set(built) == {(s, x) for x in _stepped(ann)}, name
        assert max(built.values()) == 1, (name, built.most_common(1))
    capsys.readouterr()


def test_sandwich_runs_each_socle_step_once(c3_sym3, tmp_path, capsys, monkeypatch):
    # the check takes the command's annihilator series instead of running it again
    calls = []
    real = series._socle_step

    def counting(s, prev, use_right_dots):
        calls.append(prev)
        return real(s, prev, use_right_dots)

    monkeypatch.setattr(series, "_socle_step", counting)
    path = tmp_path / "in.json"
    checked = 0
    for name, s in _memo_corpus(c3_sym3):
        path.write_text(wbk.dumps(s), encoding="utf-8")
        ann = wbk.annihilator_series(s)
        runs = [lambda: main(["sandwich", "--input", str(path)])]
        if ann.terminated:
            runs.append(lambda: wbk.verify_sandwich(s, ann.chain))
            checked += 1
        for run in runs:
            calls.clear()
            run()
            assert calls == list(_stepped(ann)), name
    assert checked >= 3
    capsys.readouterr()


def test_quotient_memo_is_keyed_by_the_ideal():
    # the pullback of the quotient's idempotents is the ideal itself, so a
    # memo that hands back the quotient by another ideal shows
    s = wbk.validate_skew_brace(ELEMENTARY_8, ELEMENTARY_8).as_dual()
    ideals = wbk.enumerate_ideals(s).ideals
    memo = _quotients(s)
    for ideal in ideals:
        assert _quotient_pullback(s, ideal, lambda q: frozenset(q.idempotents), memo) == ideal
    assert memo.cache_info().currsize == len(ideals) == 16


@pytest.mark.parametrize("special", ["socle", "annihilator"])
def test_corrupted_pullback_breaks_classify(monkeypatch, special, z6, c2_c4, c3_sym3):
    monkeypatch.setattr(series, special, lambda q: frozenset())
    for s in (z6, c2_c4, c3_sym3):
        with pytest.raises(InternalInvariantBroken, match=f"{special} step"):
            wbk.classify(s)


def test_corrupted_pullback_breaks_sandwich(monkeypatch, z6):
    # with Ann pulled back as everything, {0} < Z6 passes the chain's own
    # pullback test, so only the internal series, on the same memoized
    # quotient, can catch it
    monkeypatch.setattr(series, "annihilator", lambda q: frozenset(range(q.order)))
    with pytest.raises(InternalInvariantBroken, match="annihilator step"):
        wbk.verify_sandwich(z6, [frozenset({0}), frozenset(range(6))])
