import json
from fractions import Fraction

import pytest

from prymspin.keel_ring import all_divisors, build_graded_basis, canonicalize, monomial
from prymspin.space_registry import (RegistryError, SpaceDescriptor,
                                     load_preset_json, load_space,
                                     pullback_delta, tree_from_monomial)


@pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
def test_load_space_passes_audits(tag):
    space = load_space(tag)
    assert space.group.order == {"R2": 48, "S2plus": 72,
                                 "S2minus": 120, "M2": 720}[tag]


def test_boundary_orbits_cover_all_divisors():
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        space = load_space(tag)
        covered = set()
        for e in space.boundary.values():
            assert not (covered & e.orbit)
            covered |= e.orbit
        assert covered == set(all_divisors(6))


def test_orbit_degree_aut_identity():
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        space = load_space(tag)
        for e in space.boundary.values():
            assert len(e.orbit) * e.degree * e.stab_order == space.group.order


def test_boundary_entries_r2():
    space = load_space("R2")
    e = space.boundary["d0pp"]
    assert e.rep.key == (1, 2)
    assert (e.degree, e.aut, e.fiber_count) == (24, 2, 1)
    b1p = load_space("S2plus").boundary["b1p"]
    assert (b1p.rep.key, b1p.degree, b1p.aut) == ((1, 2, 3), 72, 8)


def test_qclass_convert():
    r2 = load_space("R2")
    assert r2.qclass_convert("d1") == 4
    assert r2.qclass_convert("point") == 2
    assert r2.qclass_convert("Ep_p") == 4
    m2 = load_space("M2")
    assert m2.qclass_convert("Delta00") == 4


def test_named_class_lambda():
    r2 = load_space("R2")
    gb = r2.gb
    manual = gb.reduce(
        r2.named_class("d0p").value.scale(Fraction(1, 10))
        + r2.named_class("d0pp").value.scale(Fraction(1, 10))
        + r2.named_class("d0r").value.scale(Fraction(1, 5))
        + r2.named_class("d1").value.scale(Fraction(1, 5))
        + r2.named_class("d11").value.scale(Fraction(1, 5)))
    assert r2.named_class("l").value == manual


def test_named_classes_are_invariant():
    from prymspin.symmetry import act
    for tag in ("R2", "S2plus", "S2minus"):
        space = load_space(tag)
        gb = space.gb
        for name in list(space.boundary) + list(space.strata)[:4]:
            value = space.named_class(name).value
            for g in space.group.generators:
                assert act(g, value, gb) == value


def test_pullback_delta_matches_base_classes():
    m2 = load_space("M2")
    d0 = m2.named_class("delta0").value
    d1 = m2.named_class("delta1").value
    for tag in ("R2", "S2plus", "S2minus"):
        p0, p1 = pullback_delta(load_space(tag))
        assert p0 == d0 and p1 == d1
    with pytest.raises(ValueError):
        pullback_delta(m2)


def test_tree_from_monomial_shapes():
    d = lambda *m: canonicalize(set(m), 6)
    tree, divs = tree_from_monomial(monomial(d(3, 4), d(5, 6)), 6,
                                    frozenset({1, 2}))
    assert sorted(tree.marks) == [(0, 2), (0, 2), (2, 0)]
    assert len(tree.edges) == 2
    tree, _ = tree_from_monomial(monomial(d(1, 2), d(1, 2, 3), d(5, 6)), 6,
                                 frozenset({1, 2}))
    assert sorted(tree.marks) == [(0, 1), (0, 1), (0, 2), (2, 0)]
    assert len(tree.edges) == 3


def test_unknown_names_raise():
    space = load_space("R2")
    with pytest.raises(KeyError):
        space.named_class("delta0")
    with pytest.raises(ValueError):
        load_space("X9")


def test_load_space_has_no_mark_count(monkeypatch):
    # every space lives on the 6-marked ring; a mark-count argument could
    # only return a cached space built for another n
    import prymspin.space_registry as sr
    monkeypatch.setattr(sr, "_SPACE_CACHE", {})
    with pytest.raises(TypeError):
        sr.load_space("M2", n=5)
    assert sr.load_space("M2").n == 6 == sr.load_space("M2").gb.n


def test_tampered_preset_fails_loudly(tmp_path, monkeypatch):
    data = load_preset_json("space_R2.json")
    data["boundary"][0]["aut"] = 3     # break one automorphism number
    bad_dir = tmp_path / "presets"
    bad_dir.mkdir()
    with open(bad_dir / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", str(bad_dir))
    import prymspin.space_registry as sr
    monkeypatch.setattr(sr, "_SPACE_CACHE", {})
    with pytest.raises(RegistryError):
        sr.load_space("R2")
