"""Exact entropy, mutual information and optimal target placement.

All quantities are computed in bits (log base 2) from exact marginals of a
:class:`~ordlab.distributions.JointSequenceModel`; an entropy is the one the
model computed when it grouped its table by the entropy's roles.  The model
memoises entropies by role set (:meth:`JointSequenceModel.entropy
<ordlab.distributions.JointSequenceModel.entropy>`), so a permuted context
costs one dict lookup.  Predictability I(Y; C) = H(Y) - H(Y | C) is taken
from the uncertainty values.  Placements are full argmin/argmax *sets*;
they are invariant under strictly monotone cost transducers, which is
checked rather than assumed.  Every tie between computed entropies reads
``TIE_TOLERANCE`` at call time: ``_optimum_set`` (placement; conflict's
optimum, worst and flat columns), ``is_markov_equality``, the CMI clamp,
``EntropyProfile.is_monotone`` and :func:`ordlab.rate.uid_classify`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial

from .errors import (
    CostOverflow,
    NonMonotoneTransducer,
    NotAPermutation,
    RoleOverlap,
    UnknownRole,
)

TIE_TOLERANCE = 1e-9


def entropy(model, roles):
    """Shannon entropy H (bits) of the marginal over ``roles``.

    Memoised in the model by the set of ``roles``: see the module docstring.
    """
    return model.entropy(roles)


def conditional_entropy(model, target_role, context_roles):
    """H(target | context) = H(target, context) - H(context), exact."""
    context = tuple(context_roles)
    if target_role in context:
        raise RoleOverlap(f"target {target_role!r} also appears in the context")
    if not context:
        return entropy(model, (target_role,))
    joint = entropy(model, (target_role,) + context)
    return joint - entropy(model, context)


def mutual_information(model, target_role, context_roles):
    """I(target; context) in bits; defined as 0 for an empty context."""
    context = tuple(context_roles)
    if not context:
        model.role_index(target_role)
        return 0.0
    return entropy(model, (target_role,)) - conditional_entropy(
        model, target_role, context
    )


def conditional_mutual_information(model, target_role, new_role, given_roles):
    """I(target; new | given); a value within TIE_TOLERANCE below 0 reads 0.0."""
    given = tuple(given_roles)
    names = [target_role, new_role, *given]
    if len(set(names)) != len(names):
        raise RoleOverlap("target, new and given roles must be pairwise disjoint")
    value = conditional_entropy(model, target_role, given) - conditional_entropy(
        model, target_role, given + (new_role,)
    )
    if -TIE_TOLERANCE <= value < 0.0:
        return 0.0
    return value


def is_markov_equality(model, target_role, new_role, given_roles):
    """True iff conditioning on ``new_role`` adds nothing: CMI <= TIE_TOLERANCE.

    Holds exactly when new_role, the given roles and the target form a
    Markov chain.
    """
    cmi = conditional_mutual_information(model, target_role, new_role, given_roles)
    return cmi <= TIE_TOLERANCE


# ---------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True)
class EntropyProfile:
    """Per-context-size entropy values in bits.

    ``values[i]`` corresponds to a context of the first ``i`` roles, and
    every value is finite.  Uncertainty profiles are non-increasing and
    predictability profiles non-decreasing; exact computations enforce this
    (``strict=True``), estimated profiles may carry noise and skip the check.
    """

    values: tuple[float, ...]
    kind: str
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.kind not in ("uncertainty", "predictability", "rate"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"{self.kind} profile holds a nan or infinite value")
        if self.strict and not self.is_monotone():
            raise ValueError(f"{self.kind} profile violates monotonicity")

    def is_monotone(self):
        """Monotone in the profile's direction, up to ``TIE_TOLERANCE``."""
        pairs = zip(self.values, self.values[1:])
        if self.kind == "predictability":
            return all(b >= a - TIE_TOLERANCE for a, b in pairs)
        return all(b <= a + TIE_TOLERANCE for a, b in pairs)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def resolve_target(model, target):
    """The given target, else the model's designated one; must be a model role."""
    target = target if target is not None else model.target_role
    if target is None:
        raise UnknownRole("no target role given and none designated on the model")
    model.role_index(target)
    return target


def _uncertainties(model, context_order, target):
    """H(Y | first i context roles) for i = 0..n, once the order is checked."""
    target = resolve_target(model, target)
    context_order = tuple(context_order)
    expected = set(model.roles) - {target}
    if set(context_order) != expected or len(context_order) != len(expected):
        raise NotAPermutation(
            f"context order {context_order!r} is not a permutation of the "
            f"non-target roles {sorted(expected)!r}"
        )
    return [
        conditional_entropy(model, target, context_order[:i])
        for i in range(len(context_order) + 1)
    ]


def uncertainty_profile(model, context_order, target=None):
    """H(Y | first i context roles) for i = 0..n."""
    return EntropyProfile(_uncertainties(model, context_order, target), "uncertainty")


def predictability_profile(model, context_order, target=None):
    """I(Y; first i context roles) = H(Y) - H(Y | ...) for i = 0..n; I_0 = 0."""
    h = _uncertainties(model, context_order, target)
    return EntropyProfile([h[0] - v for v in h], "predictability")


def _optimum_set(values, maximize, start=0):
    """Indices (from ``start``) of the values within TIE_TOLERANCE of the best."""
    if maximize:  # negation is exact, so -v <= -best + tol iff v >= best - tol
        values = [-v for v in values]
    limit = min(values) + TIE_TOLERANCE
    return frozenset(i for i, v in enumerate(values, start) if v <= limit)


def optimal_target_placement(model, context_order, objective, target=None):
    """Full argmin (uncertainty) / argmax (predictability) set of context sizes.

    The returned set always contains i = n: placing the target last is
    always optimal.
    """
    return optimal_placement_with_transducer(
        model, context_order, objective, _UNTRANSDUCED.get(objective), target
    )


# ---------------------------------------------------------------------------
# Cost transducers


@dataclass(frozen=True)
class CostTransducer:
    """Strictly monotone map from bits to abstract energetic cost.

    kinds: identity, affine(a, b), power(k), exponential(rate),
    tabulated(knots_x, knots_y) with linear interpolation.  ``direction``
    ("increasing" or "decreasing") follows from the kind and parameters;
    parameters that give no strictly monotone map raise
    NonMonotoneTransducer.  The map is chosen once, when the transducer is
    made, so a call runs only its own arithmetic.
    """

    kind: str
    params: tuple = ()
    direction: str = field(init=False)
    _map: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        direction, apply = self._resolved()
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "_map", apply)

    def _resolved(self):
        """(direction, map) of the kind and parameters, validated."""
        if self.kind == "identity":
            return "increasing", _identity
        if self.kind == "affine":
            a, b = self.params
            if a == 0:
                raise NonMonotoneTransducer("affine slope must be nonzero")
            return "increasing" if a > 0 else "decreasing", partial(_affine, a, b)
        if self.kind == "power":
            (k,) = self.params
            if k <= 0:
                raise NonMonotoneTransducer("power exponent must be positive")
            return "increasing", partial(_power, k)
        if self.kind == "exponential":
            (rate,) = self.params
            if rate == 0:
                raise NonMonotoneTransducer("exponential rate must be nonzero")
            direction = "increasing" if rate > 0 else "decreasing"
            return direction, partial(_exponential, rate)
        if self.kind == "tabulated":
            xs, ys = self.params
            if len(xs) != len(ys) or len(xs) < 2:
                raise NonMonotoneTransducer("tabulated transducer needs >= 2 knots")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise NonMonotoneTransducer("tabulated knots must be increasing in x")
            interpolate = partial(_interpolate, xs, ys)
            if all(b > a for a, b in zip(ys, ys[1:])):
                return "increasing", interpolate
            if all(b < a for a, b in zip(ys, ys[1:])):
                return "decreasing", interpolate
            raise NonMonotoneTransducer("tabulated knots are not strictly monotone")
        raise ValueError(f"unknown transducer kind {self.kind!r}")

    def __call__(self, x):
        try:
            return self._map(x)
        except OverflowError:
            raise CostOverflow(
                f"{self.kind}{self.params!r} at {x!r} overflows a float"
            ) from None

    def _each(self, xs):
        """[self(x) for x in xs], without a call through ``__call__`` per x."""
        try:
            return list(map(self._map, xs))
        except OverflowError:  # raise CostOverflow at the first x that overflows
            return [self(x) for x in xs]


def _identity(x):
    return x


def _power(k, x):
    return x**k


def _affine(a, b, x):
    return a * x + b


def _exponential(rate, x):
    return math.exp(rate * x)


def _interpolate(xs, ys, x):
    """Linear interpolation, extrapolation by the end segments."""
    lo = min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)
    t = (x - xs[lo]) / (xs[lo + 1] - xs[lo])
    return ys[lo] + t * (ys[lo + 1] - ys[lo])


IDENTITY = CostTransducer("identity")
# untransduced costs: -x + 0.0 is exact, and -0.0 == 0.0 keeps every tie
_UNTRANSDUCED = {"uncertainty": IDENTITY,
                 "predictability": CostTransducer("affine", (-1.0, 0.0))}


def optimal_placement_with_transducer(model, context_order, objective, transducer,
                                      target=None):
    """Placement set minimizing the transduced cost.

    g_H (increasing) turns uncertainty into cost to minimize; g_I
    (decreasing) turns predictability into cost to minimize.  For every
    strictly monotone transducer the result equals the untransduced set.
    """
    if objective == "uncertainty":
        if transducer.direction != "increasing":
            raise NonMonotoneTransducer(
                "uncertainty cost needs an increasing transducer (g_H)"
            )
        profile = uncertainty_profile(model, context_order, target)
    elif objective == "predictability":
        if transducer.direction != "decreasing":
            raise NonMonotoneTransducer(
                "predictability cost needs a decreasing transducer (g_I)"
            )
        profile = predictability_profile(model, context_order, target)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return _optimum_set(transducer._each(profile.values), maximize=False)
