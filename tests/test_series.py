"""Series chains, the sandwich theorem checks, and classification."""

import pytest

import wbk
from wbk import NotAnIdeal
from wbk.errors import NotAnnihilatorSeries
from wbk.series import gamma_step


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
