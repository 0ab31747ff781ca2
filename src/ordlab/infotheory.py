"""Exact entropy, mutual information and optimal target placement.

All quantities are computed in bits (log base 2) from exact marginals of a
:class:`~ordlab.distributions.JointSequenceModel`; an entropy is the one the
model computed when it grouped its table by the entropy's roles.  The
placement machinery returns full argmin/argmax *sets* with a 1e-9 tie
tolerance; those sets are invariant under strictly monotone cost
transducers, which is checked rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CostOverflow,
    NonMonotoneTransducer,
    NotAPermutation,
    RoleOverlap,
    UnknownRole,
)

TIE_TOLERANCE = 1e-9
CMI_CLAMP = 1e-12


def entropy(model, roles):
    """Shannon entropy H (bits) of the marginal over ``roles``."""
    return model.grouping(roles).entropy


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
    """I(target; new | given), clamped to 0 when within -1e-12 of it."""
    given = tuple(given_roles)
    names = [target_role, new_role, *given]
    if len(set(names)) != len(names):
        raise RoleOverlap("target, new and given roles must be pairwise disjoint")
    value = conditional_entropy(model, target_role, given) - conditional_entropy(
        model, target_role, given + (new_role,)
    )
    if -CMI_CLAMP <= value < 0.0:
        return 0.0
    return value


def is_markov_equality(model, target_role, new_role, given_roles):
    """True iff conditioning on ``new_role`` adds nothing: CMI <= 1e-9.

    Holds exactly when new_role, the given roles and the target form a
    Markov chain.
    """
    return (
        conditional_mutual_information(model, target_role, new_role, given_roles)
        <= TIE_TOLERANCE
    )


# ---------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True)
class EntropyProfile:
    """Per-context-size entropy values in bits.

    ``values[i]`` corresponds to a context of the first ``i`` roles.
    Uncertainty profiles are non-increasing and predictability profiles
    non-decreasing; exact computations enforce this (``strict=True``),
    estimated profiles may carry noise and skip the check.
    """

    values: tuple[float, ...]
    kind: str
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.kind not in ("uncertainty", "predictability", "rate"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.strict and not self.is_monotone(TIE_TOLERANCE):
            raise ValueError(f"{self.kind} profile violates monotonicity")

    def is_monotone(self, tolerance=TIE_TOLERANCE):
        pairs = zip(self.values, self.values[1:])
        if self.kind == "predictability":
            return all(b >= a - tolerance for a, b in pairs)
        return all(b <= a + tolerance for a, b in pairs)

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


def _profile(model, context_order, target, measure, kind):
    """measure(model, target, first i context roles) for i = 0..n."""
    target = resolve_target(model, target)
    context_order = tuple(context_order)
    expected = set(model.roles) - {target}
    if set(context_order) != expected or len(context_order) != len(expected):
        raise NotAPermutation(
            f"context order {context_order!r} is not a permutation of the "
            f"non-target roles {sorted(expected)!r}"
        )
    values = [
        measure(model, target, context_order[:i])
        for i in range(len(context_order) + 1)
    ]
    return EntropyProfile(values, kind)


def uncertainty_profile(model, context_order, target=None):
    """H(Y | first i context roles) for i = 0..n."""
    return _profile(model, context_order, target, conditional_entropy, "uncertainty")


def predictability_profile(model, context_order, target=None):
    """I(Y; first i context roles) for i = 0..n; the i = 0 entry is 0."""
    return _profile(model, context_order, target, mutual_information, "predictability")


def _optimum_set(values, maximize):
    best = max(values) if maximize else min(values)
    if maximize:
        return frozenset(
            i for i, v in enumerate(values) if v >= best - TIE_TOLERANCE
        )
    return frozenset(i for i, v in enumerate(values) if v <= best + TIE_TOLERANCE)


def optimal_target_placement(model, context_order, objective, target=None):
    """Full argmin (uncertainty) / argmax (predictability) set of context sizes.

    The returned set always contains i = n: placing the target last is
    always optimal.
    """
    if objective == "uncertainty":
        profile = uncertainty_profile(model, context_order, target)
        return _optimum_set(profile.values, maximize=False)
    if objective == "predictability":
        profile = predictability_profile(model, context_order, target)
        return _optimum_set(profile.values, maximize=True)
    raise ValueError(f"unknown objective {objective!r}")


# ---------------------------------------------------------------------------
# Cost transducers


@dataclass(frozen=True)
class CostTransducer:
    """Strictly monotone map from bits to abstract energetic cost.

    kinds: identity, affine(a, b), power(k), exponential(rate),
    tabulated(knots_x, knots_y) with linear interpolation.  ``direction``
    must match the analytic shape, otherwise NonMonotoneTransducer.
    """

    kind: str
    params: tuple = ()
    direction: str = "increasing"

    def __post_init__(self):
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "params", tuple(self.params))
        inferred = self._inferred_direction()
        if inferred != self.direction:
            raise NonMonotoneTransducer(
                f"{self.kind}{self.params!r} is {inferred}, "
                f"declared {self.direction}"
            )

    def _inferred_direction(self):
        if self.kind == "identity":
            return "increasing"
        if self.kind == "affine":
            a, _ = self.params
            if a == 0:
                raise NonMonotoneTransducer("affine slope must be nonzero")
            return "increasing" if a > 0 else "decreasing"
        if self.kind == "power":
            (k,) = self.params
            if k <= 0:
                raise NonMonotoneTransducer("power exponent must be positive")
            return "increasing"
        if self.kind == "exponential":
            (rate,) = self.params
            if rate == 0:
                raise NonMonotoneTransducer("exponential rate must be nonzero")
            return "increasing" if rate > 0 else "decreasing"
        if self.kind == "tabulated":
            xs, ys = self.params
            if len(xs) != len(ys) or len(xs) < 2:
                raise NonMonotoneTransducer("tabulated transducer needs >= 2 knots")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise NonMonotoneTransducer("tabulated knots must be increasing in x")
            if all(b > a for a, b in zip(ys, ys[1:])):
                return "increasing"
            if all(b < a for a, b in zip(ys, ys[1:])):
                return "decreasing"
            raise NonMonotoneTransducer("tabulated knots are not strictly monotone")
        raise ValueError(f"unknown transducer kind {self.kind!r}")

    def __call__(self, x):
        try:
            if self.kind == "identity":
                return x
            if self.kind == "affine":
                a, b = self.params
                return a * x + b
            if self.kind == "power":
                (k,) = self.params
                return x**k
            if self.kind == "exponential":
                (rate,) = self.params
                return math.exp(rate * x)
        except OverflowError:
            raise CostOverflow(
                f"{self.kind}{self.params!r} at {x!r} overflows a float"
            ) from None
        # tabulated: linear interpolation, clamped extrapolation by end slopes
        xs, ys = self.params
        if x <= xs[0]:
            lo, hi = 0, 1
        elif x >= xs[-1]:
            lo, hi = len(xs) - 2, len(xs) - 1
        else:
            lo = max(i for i in range(len(xs)) if xs[i] <= x)
            hi = lo + 1
        t = (x - xs[lo]) / (xs[hi] - xs[lo])
        return ys[lo] + t * (ys[hi] - ys[lo])


IDENTITY = CostTransducer("identity")


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
    costs = [transducer(v) for v in profile.values]
    return _optimum_set(costs, maximize=False)
