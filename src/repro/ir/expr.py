"""Affine integer expressions over loop variables.

Array indices and loop bounds in the dataset kernels are affine in the
enclosing loop variables (this is exactly the polyhedral fragment that
Polybench exercises).  Keeping them symbolic lets the same kernel IR serve
three consumers:

* the **compiler**, which emits Python source evaluating the expression
  with loop variables as local integers;
* the **static feature extractors**, which need trip counts and access
  counts without running anything;
* the **validators/tests**, which evaluate expressions on concrete
  environments.
"""

from __future__ import annotations

from typing import Mapping, Union

AffineLike = Union["Affine", int]


class Affine:
    """An immutable affine form ``const + sum(coef_v * v)``.

    Instances support ``+``, ``-``, ``*`` (by integer constants) and mixed
    arithmetic with plain ``int``; loop variables are created with
    :func:`var`.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: int = 0,
                 terms: Mapping[str, int] | None = None) -> None:
        self.const = int(const)
        clean = {}
        if terms:
            for name, coef in terms.items():
                coef = int(coef)
                if coef != 0:
                    clean[name] = coef
        self.terms = dict(sorted(clean.items()))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def wrap(value: AffineLike) -> "Affine":
        """Coerce an ``int`` (or pass through an :class:`Affine`)."""
        if isinstance(value, Affine):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"cannot build an affine expression from "
                            f"{type(value).__name__}")
        return Affine(value)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: AffineLike) -> "Affine":
        other = Affine.wrap(other)
        terms = dict(self.terms)
        for name, coef in other.terms.items():
            terms[name] = terms.get(name, 0) + coef
        return Affine(self.const + other.const, terms)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(-self.const, {n: -c for n, c in self.terms.items()})

    def __sub__(self, other: AffineLike) -> "Affine":
        return self + (-Affine.wrap(other))

    def __rsub__(self, other: AffineLike) -> "Affine":
        return Affine.wrap(other) + (-self)

    def __mul__(self, factor: int) -> "Affine":
        if isinstance(factor, Affine):
            if not factor.terms:
                factor = factor.const
            elif not self.terms:
                return factor * self.const
            else:
                raise TypeError("product of two non-constant affine "
                                "expressions is not affine")
        if not isinstance(factor, int):
            raise TypeError(f"affine expressions scale by int, not "
                            f"{type(factor).__name__}")
        return Affine(self.const * factor,
                      {n: c * factor for n, c in self.terms.items()})

    __rmul__ = __mul__

    # -- queries -------------------------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with loop variables bound by *env*."""
        value = self.const
        for name, coef in self.terms.items():
            value += coef * env[name]
        return value

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[str]:
        """Names of the loop variables this expression references."""
        return frozenset(self.terms)

    def to_python(self) -> str:
        """Render as a Python integer expression over the loop variables."""
        parts: list[str] = []
        for name, coef in self.terms.items():
            if coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coef}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        src = "+".join(parts).replace("+-", "-")
        return src if len(parts) == 1 else f"({src})"

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Affine(other)
        if not isinstance(other, Affine):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.const, tuple(self.terms.items())))

    def __repr__(self) -> str:
        return f"Affine({self.to_python()})"


def var(name: str) -> Affine:
    """Create the affine expression consisting of the single variable *name*."""
    if not name.isidentifier():
        raise ValueError(f"loop variable name must be an identifier, "
                         f"got {name!r}")
    return Affine(0, {name: 1})
