import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qso import (
    Genotype,
    build_space,
    mendelian_offspring_set,
    nonmendelian_offspring_set,
)
from qso.errors import DuplicateLabel, EmptyComponent


def test_two_allele_space():
    space = build_space([["A", "a"]])
    assert space.m == 2
    assert space.total == 4
    order = [space.genotype(k) for k in range(4)]
    assert order == [
        Genotype("f", (0,)),
        Genotype("f", (1,)),
        Genotype("m", (0,)),
        Genotype("m", (1,)),
    ]


def test_four_allele_space():
    space = build_space([["1", "2", "3", "4"]])
    assert space.m == 4
    assert space.total == 8


def test_single_allele_space():
    space = build_space([["x"]])
    assert space.m == 1
    assert space.total == 2


def test_multi_component_enumeration_is_lexicographic():
    space = build_space([["A", "a"], ["B", "b"]])
    assert space.m == 4
    assert space.trait_label(0) == "A|B"
    assert space.trait_label(1) == "A|b"
    assert space.trait_label(2) == "a|B"
    assert space.trait_label(3) == "a|b"
    for k in range(space.total):
        assert space.index(space.genotype(k)) == k
        assert space.mirror(space.mirror(k)) == k


ALLELE = st.text(alphabet="ab|", min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(ALLELE, min_size=1, max_size=3, unique=True), min_size=1, max_size=3))
def test_label_table_resolves_like_the_label_parser(components):
    # the table must resolve exactly the labels the split-and-rank parser
    # resolved, including none of those whose alleles contain "|"
    space = build_space(components)
    labels, index = space.label_table
    for t in range(space.m):
        alleles = [comp[a] for a, comp in zip(space.traits_of(t), space.components)]
        assert labels[t] == space.trait_label(t) == "|".join(alleles)
        if any("|" in allele for allele in alleles):
            assert labels[t] not in index
            with pytest.raises(ValueError):
                space.trait_index_of_label(labels[t])
        else:
            assert space.trait_index_of_label(labels[t]) == index[labels[t]] == t


def test_unknown_labels_keep_their_messages():
    space = build_space([["A", "a"], ["B", "b"]])
    with pytest.raises(ValueError, match=r"label 'A' does not match component count"):
        space.trait_index_of_label("A")
    with pytest.raises(ValueError, match=r"unknown allele 'c' for component \('B', 'b'\)"):
        space.trait_index_of_label("a|c")
    with pytest.raises(ValueError, match="trait index 4 out of range"):
        space.trait_label(4)
    with pytest.raises(ValueError, match="trait index -1 out of range"):
        space.trait_label(-1)


def test_label_table_leaves_equality_and_hash_alone():
    space = build_space([["A", "a"], ["B", "b"]])
    other = build_space([["A", "a"], ["B", "b"]])
    space.label_table
    assert space == other and hash(space) == hash(other)


def test_mirror_swaps_gender_only():
    space = build_space([["A", "a"], ["x", "y", "z"]])
    for k in range(space.total):
        g = space.genotype(k)
        mg = space.genotype(space.mirror(k))
        assert g.traits == mg.traits
        assert g.gender != mg.gender


def test_build_space_errors():
    with pytest.raises(EmptyComponent):
        build_space([])
    with pytest.raises(EmptyComponent):
        build_space([["A"], []])
    with pytest.raises(DuplicateLabel):
        build_space([["A", "A"]])


def test_mendelian_same_trait_parents():
    space = build_space([["A", "a"]])
    got = mendelian_offspring_set(space, Genotype("f", (0,)), Genotype("m", (0,)))
    assert got == {space.index(Genotype("f", (0,))), space.index(Genotype("m", (0,)))}


def test_mendelian_distinct_trait_parents_give_everything():
    space = build_space([["A", "a"]])
    got = mendelian_offspring_set(space, Genotype("f", (0,)), Genotype("m", (1,)))
    assert got == set(range(4))


def test_mendelian_four_alleles():
    space = build_space([["1", "2", "3", "4"]])
    got = mendelian_offspring_set(space, Genotype("f", (0,)), Genotype("m", (1,)))
    expected = {
        space.index(Genotype(g, (t,))) for g in ("f", "m") for t in (0, 1)
    }
    assert got == expected


def test_mendelian_same_gender_is_empty():
    space = build_space([["A", "a"]])
    assert mendelian_offspring_set(space, Genotype("f", (0,)), Genotype("f", (1,))) == frozenset()


def test_nonmendelian_sets():
    space = build_space([["+", "-"]])
    full = nonmendelian_offspring_set(space, Genotype("f", (0,)), Genotype("m", (1,)))
    assert full == set(range(4))
    assert nonmendelian_offspring_set(space, Genotype("m", (0,)), Genotype("m", (1,))) == frozenset()
    tiny = build_space([["x"]])
    assert nonmendelian_offspring_set(tiny, Genotype("f", (0,)), Genotype("m", (0,))) == {0, 1}


@st.composite
def space_and_parents(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    space = build_space([[f"c{i}a{k}" for k in range(s)] for i, s in enumerate(sizes)])
    ga = draw(st.sampled_from(range(space.total)))
    gb = draw(st.sampled_from(range(space.total)))
    return space, space.genotype(ga), space.genotype(gb)


@settings(max_examples=200, deadline=None)
@given(space_and_parents())
def test_offspring_set_properties(case):
    space, a, b = case
    got = mendelian_offspring_set(space, a, b)
    # symmetric in the parents
    assert got == mendelian_offspring_set(space, b, a)
    # closed under the gender mirror
    assert got == {space.mirror(k) for k in got}
    # contained in the unrestricted set
    assert got <= nonmendelian_offspring_set(space, a, b)
    if a.gender == b.gender:
        assert got == frozenset()
    else:
        # brute-force size: both genders times distinct-parental-allele counts
        expected = 2 * math.prod(
            len({ai, bi}) for ai, bi in zip(a.traits, b.traits)
        )
        assert len(got) == expected
        # brute-force membership: every member matches a parent per component
        for k in got:
            child = space.genotype(k)
            assert all(
                ci in (ai, bi)
                for ci, ai, bi in zip(child.traits, a.traits, b.traits)
            )


@pytest.mark.parametrize("offspring_set", [mendelian_offspring_set, nonmendelian_offspring_set])
@pytest.mark.parametrize("outside, message", [
    (Genotype("f", (0, 1)), "expected 1 trait entries, got 2"),
    (Genotype("f", (2,)), r"allele index 2 out of range for \('A', 'a'\)"),
], ids=["length", "range"])
def test_offspring_sets_reject_a_parent_outside_the_space(offspring_set, outside, message):
    space = build_space([["A", "a"]])
    inside = Genotype("m", (0,))
    with pytest.raises(ValueError, match=message):
        offspring_set(space, outside, inside)
    with pytest.raises(ValueError, match=message):
        offspring_set(space, inside, outside)
