import itertools
import json
import re
import shutil
import types
from fractions import Fraction

import pytest

import oracles
from prymspin import reference, space_registry
from prymspin.keel_ring import (GradedBasis, RingElement, all_divisors,
                                build_graded_basis, canonicalize, monomial)
from prymspin.presentations import parse_polynomial
from prymspin.space_registry import (_PACKAGED_PRESETS, RegistryError,
                                     SpaceDescriptor, load_preset_json,
                                     load_space, pullback_tables,
                                     tree_from_monomial)
from prymspin.strata_aut import MarkedTree, prym_aut_number, trees_isomorphic


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
        assert covered == {(d,) for d in all_divisors(6)}


@pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
def test_orbits_match_oracle(tag):
    # every orbit is the set of images of its representative under the
    # whole group, relabelled by the oracle
    space = load_space(tag)
    elements = space.group.elements
    for e in list(space.boundary.values()) + list(space.strata.values()):
        assert e.orbit == {oracles.relabel(g, e.rep) for g in elements}


@pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
def test_blown_edges_match_the_preset_files(tag):
    # the blown-up divisors and their representatives are read straight from
    # the preset file and their orbits relabelled by the oracle, so the
    # check shares nothing with the loader's rule
    data = load_preset_json(f"space_{tag}.json")
    listed = set(data["blown_boundary"])
    space = load_space(tag)
    blown = set()
    for item in data["boundary"]:
        if item["name"] in listed:
            rep = (canonicalize(set(item["rep"][0]), 6),)
            blown |= {oracles.relabel(g, rep)[0] for g in space.group.elements}
    for name, e in space.boundary.items():
        assert e.blown_edges == ({0} if name in listed else set()), name
    for name, e in space.strata.items():
        assert e.blown_edges == {k for k, d in enumerate(e.rep)
                                 if d in blown}, name


def test_orbit_degree_aut_identity():
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        space = load_space(tag)
        for e in space.boundary.values():
            assert len(e.orbit) * e.degree * e.stab_order == space.group.order
            assert space.cover_degree(e.name) == e.degree, e.name
        for e in list(space.boundary.values()) + list(space.strata.values()):
            k = space.cover_degree(e.name)
            assert k.denominator == 1 and k > 0, (tag, e.name, k)
    assert load_space("S2minus").cover_degree("Xm") == 6
    assert load_space("R2").cover_degree("Ep_r") == 1


def test_boundary_entries_r2():
    space = load_space("R2")
    e = space.boundary["d0pp"]
    assert e.rep[0].key == (1, 2)
    assert (e.degree, e.aut, e.fiber_count) == (24, 2, 1)
    b1p = load_space("S2plus").boundary["b1p"]
    assert (b1p.rep[0].key, b1p.degree, b1p.aut) == ((1, 2, 3), 72, 8)


def test_aut_number():
    r2 = load_space("R2")
    assert r2.aut_number("d1") == 4
    assert r2.aut_number("Ep_p") == 4
    m2 = load_space("M2")
    assert m2.aut_number("Delta00") == 4
    with pytest.raises(KeyError):
        r2.aut_number("point")
    # the generic object of every space (one component, no node) has the
    # published automorphism number 2, the hyperelliptic involution
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        space = load_space(tag)
        a = len(space.a_marks)
        generic = MarkedTree(((a, 6 - a),), ())
        assert prym_aut_number(generic, frozenset(),
                               space.unordered_classes) == 2, tag


def test_named_class_lambda():
    r2 = load_space("R2")
    gb = r2.gb
    manual = gb.combine(1, [
        (r2.named_class("d0p").value, Fraction(1, 10)),
        (r2.named_class("d0pp").value, Fraction(1, 10)),
        (r2.named_class("d0r").value, Fraction(1, 5)),
        (r2.named_class("d1").value, Fraction(1, 5)),
        (r2.named_class("d11").value, Fraction(1, 5))])
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


# The pullbacks of delta0 and delta1 in the boundary classes of each cover,
# as the presets used to list them.
PULLBACKS = {
    "R2": {"delta0": {"d0p": 1, "d0pp": 1, "d0r": 2},
           "delta1": {"d1": 1, "d11": 1}},
    "S2plus": {"delta0": {"a0p": 1, "b0p": 2}, "delta1": {"a1p": 2, "b1p": 2}},
    "S2minus": {"delta0": {"a0m": 1, "b0m": 2}, "delta1": {"a1m": 2}},
    "M2": {"delta0": {"delta0": 1}, "delta1": {"delta1": 1}},
}


def test_pullback_delta_matches_base_classes():
    m2 = load_space("M2")
    for tag, expected in PULLBACKS.items():
        space = load_space(tag)
        tables = pullback_tables(space.boundary, m2.boundary)
        assert tables == expected, tag
        for b, table in tables.items():
            pulled = space.evaluate({(w,): c for w, c in table.items()})
            assert pulled == m2.named_class(b).value, (tag, b)


# Ten times the Hodge class of each space, as each preset's lambda_class
# cite prints it.
TEN_LAMBDA = {
    "M2": {"delta0": 1, "delta1": 2},
    "R2": {"d0p": 1, "d0pp": 1, "d0r": 2, "d1": 2, "d11": 2},
    "S2plus": {"a0p": 1, "b0p": 2, "a1p": 4, "b1p": 4},
    "S2minus": {"a0m": 1, "b0m": 2, "a1m": 4},
}


@pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
def test_derived_lambda_matches_cited_formula(tag):
    space = load_space(tag)
    assert {w: 10 * c for w, c in space.lambda_coeffs.items()} \
        == TEN_LAMBDA[tag]
    m2 = load_space("M2")
    assert space.named_class(space.lambda_name).value \
        == m2.named_class("lambda").value


def test_evaluate_degrees():
    r2 = load_space("R2")
    zero = r2.evaluate({})
    assert zero.is_zero() and zero.degree == 0
    assert r2.evaluate({(): 3}) == RingElement.unit(6).scale(3)
    with pytest.raises(ValueError):
        r2.evaluate({("d0p",): 1, ("d0p", "d1"): 1})
    with pytest.raises(KeyError):
        r2.evaluate({("nonexistent",): 1})


def test_evaluate_keeps_products_per_space(monkeypatch):
    # a fresh space: products of sorted names are kept on the descriptor
    monkeypatch.setattr(space_registry, "_SPACE_CACHE", {})
    r2 = load_space("R2")
    calls = []
    real = GradedBasis.multiply

    def counting_multiply(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(GradedBasis, "multiply", counting_multiply)
    pair = r2.evaluate({("d0p", "d1"): 1})
    assert len(calls) == 1
    r2.evaluate({("d0p", "d1", "d11"): 1})
    assert len(calls) == 2
    assert r2.evaluate({("d1", "d0p"): 1}) == pair
    assert len(calls) == 2


@pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus"])
def test_pullback_relation_texts_follow_from_presets(tag):
    """Each printed pullback relation is a nonzero multiple of the base
    relation with the derived pullbacks substituted for delta0, delta1."""
    space = load_space(tag)
    tables = pullback_tables(space.boundary, load_space("M2").boundary)

    def substitute(match):
        table = tables[match.group(0)]
        return "(" + " + ".join(f"({c})*{nm}" for nm, c in table.items()) + ")"

    variables = list(space.boundary) + [space.lambda_name]
    pulled = parse_polynomial(re.sub(r"delta[01]", substitute,
                                     reference.M2_RELATION), variables)
    printed = parse_polynomial(reference.PULLBACK_RELATIONS[tag], variables)
    assert printed and set(printed) == set(pulled)
    ratios = {printed[k] / pulled[k] for k in printed}
    assert len(ratios) == 1 and 0 not in ratios


def test_tree_from_monomial_shapes():
    d = lambda *m: canonicalize(set(m), 6)
    tree = tree_from_monomial(monomial(d(3, 4), d(5, 6)), 6,
                              frozenset({1, 2}))
    assert sorted(tree.marks) == [(0, 2), (0, 2), (2, 0)]
    assert len(tree.edges) == 2
    tree = tree_from_monomial(monomial(d(1, 2), d(1, 2, 3), d(5, 6)), 6,
                              frozenset({1, 2}))
    assert sorted(tree.marks) == [(0, 1), (0, 1), (0, 2), (2, 0)]
    assert len(tree.edges) == 3


def _edge_sides(tree, k):
    """Mark counts (A, B) on the first endpoint's side of edge k."""
    side, frontier = {tree.edges[k][0]}, [tree.edges[k][0]]
    while frontier:
        c = frontier.pop()
        for j, (u, v) in enumerate(tree.edges):
            for x, y in ((u, v), (v, u)):
                if j != k and x == c and y not in side:
                    side.add(y)
                    frontier.append(y)
    return tuple(map(sum, zip(*(tree.marks[c] for c in side))))


def test_tree_builder_matches_oracle():
    # for every set of distinct pairwise compatible splits: the tree is the
    # oracle's up to isomorphism, and edge k cuts the marks as split k does
    for n in range(4, 7):
        a_marks = frozenset(range(1, n + 1, 2))
        for k in range(n - 2):
            for splits in itertools.combinations(all_divisors(n), k):
                if not oracles._pairwise_compatible(splits):
                    continue
                tree = tree_from_monomial(splits, n, a_marks)
                expected, _ = oracles.tree_from_splits(splits, n, a_marks)
                assert trees_isomorphic(tree, expected), splits
                for e, div in enumerate(splits):
                    s = div.members
                    cut = (len(s & a_marks), len(s - a_marks))
                    rest = (len(a_marks) - cut[0], n - len(a_marks) - cut[1])
                    assert _edge_sides(tree, e) in (cut, rest), (splits, e)


def test_crossing_splits_raise():
    d = lambda *m: canonicalize(set(m), 6)
    with pytest.raises(RegistryError):
        tree_from_monomial(monomial(d(1, 2), d(2, 3)), 6, frozenset())


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


@pytest.mark.parametrize("section,field,value,message", [
    ("boundary", "aut", 3, "d0p: computed automorphism number 2, table says 3"),
    ("boundary", "degree", 5, "d0p: computed degree 4, table says 5"),
    ("boundary", "fiber_count", 7, "d0p: computed fiber count 6, table says 7"),
    ("strata", "pushforward", ["Delta00", "2"],
     "Ep_p: computed pushforward coefficient 1, table says 2"),
], ids=["aut", "degree", "fiber_count", "pushforward"])
def test_tampered_preset_fails_loudly(tmp_path, monkeypatch, section, field,
                                      value, message):
    # one table value of the first entry of a section is broken; the audit
    # names what it recomputed, the value it got and the table's
    data = load_preset_json("space_R2.json")
    data[section][0][field] = value
    bad_dir = tmp_path / "presets"
    bad_dir.mkdir()
    with open(bad_dir / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", str(bad_dir))
    import prymspin.space_registry as sr
    monkeypatch.setattr(sr, "_SPACE_CACHE", {})
    with pytest.raises(RegistryError, match=re.escape(f"R2/{message}")):
        sr.load_space("R2")


@pytest.mark.parametrize("section, index, rep, message", [
    # [3,5] lies in the orbit of d0p's [3,4]
    ("boundary", 2, [[3, 5]], "orbits of d0p and d0r share the monomial"),
    # ([3,5], [1,2,3,5]) lies in the orbit of Ep_p's ([3,4], [5,6])
    ("strata", 3, [[3, 5], [1, 2, 3, 5]],
     "orbits of Ep_p and Er_r share the monomial"),
], ids=["divisors", "strata"])
def test_overlapping_orbits_fail_loudly(tmp_path, monkeypatch, section,
                                        index, rep, message):
    # an entry whose rep lies in an earlier entry's orbit claims monomials
    # that class already holds; the loader names both classes
    data = load_preset_json("space_R2.json")
    data[section][index]["rep"] = rep
    bad_dir = tmp_path / "presets"
    bad_dir.mkdir()
    with open(bad_dir / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", str(bad_dir))
    import prymspin.space_registry as sr
    monkeypatch.setattr(sr, "_SPACE_CACHE", {})
    with pytest.raises(RegistryError, match=re.escape(f"R2: {message}")):
        sr.load_space("R2")


@pytest.mark.parametrize("key", ["degree", "fiber_count"])
def test_boundary_item_without_its_table_value_raises(tmp_path, monkeypatch,
                                                      key):
    # a divisor's published values are required; a stratum has none of them
    data = load_preset_json("space_R2.json")
    del data["boundary"][1][key]
    bad_dir = tmp_path / "presets"
    bad_dir.mkdir()
    with open(bad_dir / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", str(bad_dir))
    import prymspin.space_registry as sr
    monkeypatch.setattr(sr, "_SPACE_CACHE", {})
    with pytest.raises(KeyError, match=key):
        sr.load_space("R2")


def test_space_cache_is_keyed_by_preset_directory(tmp_path, monkeypatch):
    # a space loaded from the packaged presets must not be returned while
    # MODULI_PRESETS points at another directory, and comes back after
    import prymspin.space_registry as sr
    monkeypatch.delenv("MODULI_PRESETS", raising=False)
    original = sr.load_space("R2")
    data = load_preset_json("space_R2.json")
    data["boundary"][0]["aut"] = 3
    bad_dir = tmp_path / "presets"
    bad_dir.mkdir()
    with open(bad_dir / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", str(bad_dir))
    with pytest.raises(RegistryError):
        sr.load_space("R2")
    monkeypatch.delenv("MODULI_PRESETS")
    assert sr.load_space("R2") is original


def test_space_cache_follows_relative_preset_directory(tmp_path, monkeypatch):
    # the same relative MODULI_PRESETS names another directory after a chdir
    import prymspin.space_registry as sr
    monkeypatch.delenv("MODULI_PRESETS", raising=False)
    original = sr.load_space("R2")
    good = tmp_path / "good" / "presets"
    bad = tmp_path / "bad" / "presets"
    good.mkdir(parents=True)
    bad.mkdir(parents=True)
    data = load_preset_json("space_R2.json")
    with open(good / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    data["boundary"][0]["aut"] = 3
    with open(bad / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", "presets")
    monkeypatch.chdir(tmp_path / "good")
    copied = sr.load_space("R2")
    assert copied is not original
    assert copied.boundary.keys() == original.boundary.keys()
    monkeypatch.chdir(tmp_path / "bad")
    with pytest.raises(RegistryError):
        sr.load_space("R2")
    monkeypatch.chdir(tmp_path / "good")
    assert sr.load_space("R2") is copied


def test_preset_directory_without_the_file_shares_the_packaged_space(
        tmp_path, monkeypatch):
    import prymspin.space_registry as sr
    monkeypatch.delenv("MODULI_PRESETS", raising=False)
    original = sr.load_space("R2")
    monkeypatch.setenv("MODULI_PRESETS", str(tmp_path))
    assert sr.load_space("R2") is original


def test_named_class_is_built_once_per_space(tmp_path, monkeypatch):
    # the value is kept on the space, and a space loaded from another preset
    # file builds its own
    import prymspin.space_registry as sr
    monkeypatch.delenv("MODULI_PRESETS", raising=False)
    original = sr.load_space("R2")
    lam = original.named_class("l")
    assert original.named_class("l") is lam
    data = load_preset_json("space_R2.json")
    data["lambda_class"]["name"] = "l2"
    data["boundary"][0]["display"] = "changed"
    other = tmp_path / "presets"
    other.mkdir()
    with open(other / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", str(other))
    copied = sr.load_space("R2")
    assert copied.boundary["d0p"].display == "changed"
    assert copied.named_class("l2").value == lam.value
    with pytest.raises(KeyError):
        copied.named_class("l")
    monkeypatch.delenv("MODULI_PRESETS")
    assert sr.load_space("R2").named_class("l") is lam


def test_space_cache_is_keyed_by_the_base_preset(tmp_path, monkeypatch):
    # a cover's Hodge class comes from the base's boundary classes, so a
    # directory holding only another space_M2.json loads its own cover
    import prymspin.space_registry as sr
    monkeypatch.delenv("MODULI_PRESETS", raising=False)
    original = sr.load_space("R2")
    data = load_preset_json("space_M2.json")
    data["boundary"][0]["display"] = "changed"
    changed = tmp_path / "changed"
    changed.mkdir()
    with open(changed / "space_M2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    data["boundary"][0]["aut"] = 3
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    with open(tampered / "space_M2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    monkeypatch.setenv("MODULI_PRESETS", str(changed))
    copied = sr.load_space("R2")
    assert copied is not original
    assert copied.lambda_coeffs == original.lambda_coeffs
    assert sr.load_space("M2").boundary["delta0"].display == "changed"
    monkeypatch.setenv("MODULI_PRESETS", str(tampered))
    with pytest.raises(RegistryError):
        sr.load_space("R2")
    monkeypatch.delenv("MODULI_PRESETS")
    assert sr.load_space("R2") is original


# Preset keys kept as documentation only; the loader reads every other key.
DOCUMENTATION_KEYS = {"space", "description", "cite"}


def _unread_preset_keys(monkeypatch, preset_dir, tag):
    """The keys of the preset files behind load_space(tag) (the space's and
    the base's) that the loader never reads, documentation keys aside."""
    import prymspin.space_registry as sr

    class ReadKeys(dict):
        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

    made = []

    def hook(pairs):
        made.append(ReadKeys(pairs))
        made[-1].read = set()
        return made[-1]

    load = json.load
    monkeypatch.setattr(sr, "json", types.SimpleNamespace(
        load=lambda fh: load(fh, object_pairs_hook=hook)))
    monkeypatch.setattr(sr, "_SPACE_CACHE", {})
    monkeypatch.setenv("MODULI_PRESETS", str(preset_dir))
    sr.load_space(tag)
    return {k for d in made for k in d if k not in d.read} - DOCUMENTATION_KEYS


@pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
def test_preset_keys_are_all_read(tag, monkeypatch):
    # a preset carries no value the loader ignores: every model input that
    # can be derived stays out of the files
    assert _unread_preset_keys(monkeypatch, _PACKAGED_PRESETS, tag) == set()


@pytest.mark.parametrize("where,key,value", [
    ((), "aut_generic", 2),
    ((), "fundamental_pushforward", "15"),
    ((), "pullback_delta0", {"d0p": "1", "d0pp": "1", "d0r": "2"}),
    (("lambda_class",), "coeffs", {"d0p": "1/10"}),
    (("boundary", 0), "aut_generic", 2),
    (("strata", 0), "fiber", 1),
], ids=["aut_generic", "fundamental_pushforward", "pullback_delta0",
        "lambda_coeffs", "boundary_aut_generic", "strata_fiber"])
def test_preset_schema_refuses_unread_keys(tmp_path, monkeypatch, where,
                                           key, value):
    presets = tmp_path / "presets"
    shutil.copytree(_PACKAGED_PRESETS, presets)
    data = load_preset_json("space_R2.json")
    entry = data
    for step in where:
        entry = entry[step]
    entry[key] = value
    with open(presets / "space_R2.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    # the keys inside an unread value are unread too
    assert key in _unread_preset_keys(monkeypatch, presets, "R2")


def test_each_tree_is_enumerated_once(monkeypatch):
    # loading every space asks for the automorphisms of a tree several times
    # (generic count, structure number, fiber count); the automorphisms are
    # the maps of a tree onto itself, and each tree is enumerated once
    import collections
    import prymspin.space_registry as sr
    import prymspin.strata_aut as sa
    seen = collections.Counter()
    real = sa._tree_maps

    def counting(src, dst, allow_set_swap):
        if src is dst:
            seen[src] += 1
        return real(src, dst, allow_set_swap)

    monkeypatch.setattr(sa, "_tree_maps", counting)
    monkeypatch.setattr(sr, "_SPACE_CACHE", {})
    sa._automorphisms.cache_clear()
    for tag in sr.SPACE_TAGS:
        sr.load_space(tag)
    assert seen and set(seen.values()) == {1}
    assert sa._automorphisms.cache_info().hits > 0
