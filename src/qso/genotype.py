"""Genotype spaces over gendered trait components and offspring-set rules.

A genotype couples a gender (female or male) with one allele per trait
component.  Genotypes are enumerated deterministically: index
``g * m + t`` where ``g`` is the gender index (female block first),
``m`` the number of trait combinations, and ``t`` the lexicographic rank
of the allele-index vector.  The mirror map ``k -> (k + m) mod 2m``
exchanges the genders of otherwise identical genotypes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DuplicateLabel, EmptyComponent

GENDERS = ("f", "m")


@dataclass(frozen=True)
class Genotype:
    """A gender plus one allele index per trait component."""

    gender: str
    traits: tuple[int, ...]

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        object.__setattr__(self, "traits", tuple(int(t) for t in self.traits))


@dataclass(frozen=True)
class GenotypeSpace:
    """Immutable enumeration of all genotypes over the given components.

    ``m`` is the number of trait combinations, ``total`` the number of
    genotypes (``2 * m``).  Safe to share across threads.
    """

    components: tuple[tuple[str, ...], ...]
    m: int = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        comps = tuple(tuple(c) for c in self.components)
        if not comps:
            raise EmptyComponent("at least one trait component is required")
        for idx, comp in enumerate(comps):
            if not comp:
                raise EmptyComponent(f"component {idx} has no alleles")
            if len(set(comp)) != len(comp):
                raise DuplicateLabel(f"component {idx} repeats an allele label: {comp}")
        m = 1
        for comp in comps:
            m *= len(comp)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "total", 2 * m)

    # -- enumeration ---------------------------------------------------------

    def trait_index(self, traits: tuple[int, ...]) -> int:
        """Lexicographic rank of an allele-index vector."""
        if len(traits) != len(self.components):
            raise ValueError(
                f"expected {len(self.components)} trait entries, got {len(traits)}"
            )
        rank = 0
        for allele, comp in zip(traits, self.components):
            if not 0 <= allele < len(comp):
                raise ValueError(f"allele index {allele} out of range for {comp}")
            rank = rank * len(comp) + allele
        return rank

    def traits_of(self, trait_index: int) -> tuple[int, ...]:
        """Inverse of :meth:`trait_index`."""
        if not 0 <= trait_index < self.m:
            raise ValueError(f"trait index {trait_index} out of range")
        out = []
        for comp in reversed(self.components):
            out.append(trait_index % len(comp))
            trait_index //= len(comp)
        return tuple(reversed(out))

    def index(self, genotype: Genotype) -> int:
        """Genotype index: female block first, traits in lexicographic order."""
        return GENDERS.index(genotype.gender) * self.m + self.trait_index(genotype.traits)

    def genotype(self, index: int) -> Genotype:
        if not 0 <= index < self.total:
            raise ValueError(f"genotype index {index} out of range")
        return Genotype(GENDERS[index // self.m], self.traits_of(index % self.m))

    def mirror(self, index: int) -> int:
        """Index of the opposite-gender genotype with identical traits."""
        return (index + self.m) % self.total

    @cached_property
    def label_table(self) -> tuple[tuple[str, ...], dict[str, int]]:
        """Trait labels in index order and the map from label to index.

        Built once per space and shared; callers must not mutate the dict.
        Alleles that contain ``|`` make their labels ambiguous, so such
        labels are left out of the map and never resolve.
        """
        labels = tuple("|".join(combo) for combo in itertools.product(*self.components))
        pipes = len(self.components) - 1
        index = {label: t for t, label in enumerate(labels) if label.count("|") == pipes}
        return labels, index

    def trait_label(self, trait_index: int) -> str:
        """Human-readable label of a trait combination (alleles joined by '|')."""
        if not 0 <= trait_index < self.m:
            raise ValueError(f"trait index {trait_index} out of range")
        return self.label_table[0][trait_index]

    def trait_index_of_label(self, label: str) -> int:
        index = self.label_table[1].get(label)
        if index is not None:
            return index
        # every label of one known allele per component is in the map, so
        # this one has the wrong count of alleles or an unknown allele
        parts = label.split("|")
        if len(parts) != len(self.components):
            raise ValueError(f"label {label!r} does not match component count")
        part, comp = next((part, comp) for part, comp in zip(parts, self.components)
                          if part not in comp)
        raise ValueError(f"unknown allele {part!r} for component {comp}")

    def label(self, index: int) -> str:
        g = self.genotype(index)
        return f"({g.gender},{self.trait_label(self.trait_index(g.traits))})"


def build_space(components) -> GenotypeSpace:
    """Build a :class:`GenotypeSpace` from a list of allele-label lists."""
    return GenotypeSpace(tuple(tuple(c) for c in components))


def mendelian_offspring_set(space: GenotypeSpace, a: Genotype, b: Genotype) -> frozenset[int]:
    """Genotype indices a child of ``a`` and ``b`` may carry under per-component
    parental inheritance.

    Empty for same-gender parents.  Otherwise the child's allele at every
    component must equal one parent's allele there; both child genders are
    always included.
    """
    space.index(a)  # raises unless both parents belong to the space
    space.index(b)
    if a.gender == b.gender:
        return frozenset()
    per_component = [
        sorted({ai, bi}) for ai, bi in zip(a.traits, b.traits)
    ]
    indices = set()
    for combo in itertools.product(*per_component):
        t = space.trait_index(tuple(combo))
        indices.add(t)
        indices.add(t + space.m)
    return frozenset(indices)


def nonmendelian_offspring_set(space: GenotypeSpace, a: Genotype, b: Genotype) -> frozenset[int]:
    """Unrestricted offspring set: every genotype, unless parents share a gender."""
    space.index(a)  # raises unless both parents belong to the space
    space.index(b)
    if a.gender == b.gender:
        return frozenset()
    return frozenset(range(space.total))
