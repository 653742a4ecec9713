"""Factories for the concrete operators shipped with the package.

Two parametric families (the two-type trait operator, reduced from its
Mendelian tensor, and the closed-form multi-allele operator of Volterra
type) and two operators compiled from embedded frequency tables (Rh and
ABO blood-group transmission, estimated from a Malaysian parent sample).
Table rows are stored exactly as published, at four decimals; operator
coefficients are always derived from the measures after row
renormalization, never stored, because the published derived forms carry
rounding inconsistencies in the fourth decimal.

``table_operator`` is the one construction from a measure table: the Rh and
ABO models and the CLI's ``--coeff-file`` all build their operator with it.
A table model's type labels are those its ``# space:`` line declares.

Set ``QSO_DATA_DIR`` to override the embedded-table directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from .dynamics import _check_alpha
from .errors import BadSum, NonPositiveAlpha
from .genotype import GenotypeSpace, build_space
from .ingest import load_measure_family, save_measure_family
from .operators import (
    MASS_TOL,
    Distribution,
    MeasureFamily,
    ReducedQso,
    _frozen,
    mendelian_coefficients,
    nonmendelian_coefficients,
    reduce,
)

TRAIT_LABELS = ("A", "a")

MODEL_NAMES = ("trait", "multi", "rh", "abo")


@dataclass(frozen=True)
class ModelDescriptor:
    name: str
    n: int
    type_labels: tuple[str, ...]
    parameters: dict
    source: str  # "closed-form" | "embedded-table"


def trait_space() -> GenotypeSpace:
    return build_space([TRAIT_LABELS])


def trait_base_measure(alpha: float) -> Distribution:
    """The gender-symmetric base measure (alpha, 1/2 - alpha) per gender."""
    _check_alpha(alpha)
    return Distribution(trait_space(), [alpha, 0.5 - alpha, alpha, 0.5 - alpha])


def mendelian_trait(alpha: float) -> ReducedQso:
    """Two-type trait operator: ``y'_1 = y_1^2 + 4 alpha y_1 y_2``, the
    reduced Mendelian tensor of the base measure (alpha, 1/2 - alpha)."""
    return reduce(mendelian_coefficients(trait_space(), trait_base_measure(alpha)))


def multi_allele(alphas) -> ReducedQso:
    """Volterra-form operator from strictly positive trait weights summing
    to 1/2: ``p[i,i,i] = 1`` and ``p[i,j,i] = alpha_i / (alpha_i + alpha_j)``.
    """
    arr = np.asarray(alphas, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two trait weights")
    if not np.all(arr > 0.0):  # so NaN fails too
        raise NonPositiveAlpha(f"weights must be strictly positive, got {arr.tolist()}")
    if not abs(arr.sum() - 0.5) <= MASS_TOL:
        raise BadSum(f"weights must sum to 1/2, got {arr.sum()}")
    n = arr.size
    share = arr[:, None] / (arr[:, None] + arr)   # [i, j]: alpha_i / (alpha_i + alpha_j)
    p = np.zeros((n, n, n))
    k = np.arange(n)
    p[k, :, k] = share
    p[:, k, k] = share.T
    p[k, k, k] = 1.0
    return ReducedQso(n, _frozen(p))


# --- embedded tables --------------------------------------------------------

def _table_path(name: str) -> Path:
    override = os.environ.get("QSO_DATA_DIR")
    if override:
        return Path(override) / name
    return Path(str(files("qso").joinpath("data", name)))


def rh_measure_family() -> MeasureFamily:
    """The embedded Rh table, exactly as published (rows already exact)."""
    return load_measure_family(_table_path("rh.csv"))


def abo_measure_family() -> MeasureFamily:
    """The embedded ABO table, exactly as published (four rows sum to
    0.9998 and need renormalization before operator construction)."""
    return load_measure_family(_table_path("abo.csv"))


def table_operator(family: MeasureFamily) -> ReducedQso:
    """The operator of a measure table.  Published tables are rounded, so
    each row is renormalized to unit mass first."""
    return reduce(nonmendelian_coefficients(family.space, family.renormalized()))


def _table_model(name: str, family: MeasureFamily) -> tuple[ReducedQso, ModelDescriptor]:
    q = table_operator(family)
    return q, ModelDescriptor(name, q.n, family.space.label_table[0], {}, "embedded-table")


def rh_model() -> tuple[ReducedQso, ModelDescriptor]:
    """Two-type Rh transmission operator from the embedded table."""
    return _table_model("rh", rh_measure_family())


def abo_model() -> tuple[ReducedQso, ModelDescriptor]:
    """Four-type ABO transmission operator from the embedded table."""
    return _table_model("abo", abo_measure_family())


def export_table(name: str, path) -> None:
    """Write an embedded table ("rh" or "abo") to ``path`` in the
    measure-family CSV format."""
    if name not in ("rh", "abo"):
        raise ValueError(f"unknown table {name!r}; choose 'rh' or 'abo'")
    save_measure_family(load_measure_family(_table_path(f"{name}.csv")), path)


def from_name(name: str, alpha: float | None = None,
              alphas=None) -> tuple[ReducedQso, ModelDescriptor]:
    """Dispatch used by the CLI: build a model and its descriptor by name."""
    if name == "trait":
        if alpha is None:
            raise ValueError("model 'trait' requires --alpha")
        q = mendelian_trait(alpha)
        return q, ModelDescriptor("trait", 2, TRAIT_LABELS, {"alpha": alpha}, "closed-form")
    if name == "multi":
        if alphas is None:
            raise ValueError("model 'multi' requires --alphas")
        q = multi_allele(alphas)
        labels = tuple(str(i + 1) for i in range(q.n))
        return q, ModelDescriptor(
            "multi", q.n, labels, {"alphas": list(map(float, alphas))}, "closed-form"
        )
    if name == "rh":
        return rh_model()
    if name == "abo":
        return abo_model()
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
