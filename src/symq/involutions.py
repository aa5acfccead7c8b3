"""Good involutions: decision, enumeration, and classification.

An involution rho of a quandle is *good* when it commutes with every inner
permutation (rho(x^y) = rho(x)^y) and acting through it inverts columns
(x^rho(y) = x^(y^-1)).  The pair (quandle, rho) is a symmetric quandle.

The enumerator here is the package's independent oracle: classification
shortcuts are always cross-checked against it, never substituted for it.
It runs the package's one backtracking search on the definition itself:
involutive bijections whose images meet the column condition and that
commute with every column x -> x^y.  The brute-force classes come from a
union-find over the oracle's list, joined by exhaustive isomorphism searches
and by the conjugates of the roots not yet reached under each witness found.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from . import perms
from .budget import SearchBudget
from .errors import (
    HypothesisNotMet,
    InternalConsistencyError,
    MalformedPermutation,
    NotFixedTwoTorsion,
    SearchBudgetExceeded,
)
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    _blocks,
    _iso_search,
    _join,
    fixed_two_torsion,
    orbits_under,
)
from .quandles import (
    FiniteQuandle,
    QuandleMap,
    galex,
    inner_orbits,
    is_kei,
    kei_witness,
)

__all__ = [
    "SymmetricQuandle",
    "InvolutionViolation",
    "SqClassification",
    "check_good_involution",
    "is_good_involution",
    "enumerate_good_involutions",
    "exists_good_involution_galex",
    "rho_r",
    "good_involutions_closed_form",
    "symmetric_quandle",
    "symmetric_quandle_isomorphic",
    "classify_sq_bruteforce",
    "classify_sq_theorem",
    "cross_check_sq",
]

@dataclass(frozen=True)
class SymmetricQuandle:
    quandle: FiniteQuandle
    rho: tuple[int, ...]


@dataclass(frozen=True)
class InvolutionViolation:
    """First failed condition ('involution', 'equivariance', 'column') and witness."""

    condition: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class SqClassification:
    """Everything one analysis of a quandle found, by one or both routes.

    `classes_bruteforce` partitions `good_involutions` (index lists) via
    exhaustive pairwise isomorphism searches; `classes_theorem` lists the
    centralizer orbits on the fixed self-inverse elements (element lists)
    when the quandle is a connected kei built from a (group, automorphism)
    pair.  Both are tuples of ascending member tuples ordered by smallest
    member.  A field the requested routes do not produce is None.
    `outcome` is "budget" when the node budget ran out; the route fields
    are then all None.  `orbit_count` is None only for a group whose
    automorphisms could not be listed, where no quandle was built.
    """

    order: int
    origin: GroupAutomorphism | None
    good_involutions: tuple[tuple[int, ...], ...] | None = None
    classes_bruteforce: tuple[tuple[int, ...], ...] | None = None
    classes_theorem: tuple[tuple[int, ...], ...] | None = None
    agreement: bool | None = None
    notes: tuple[str, ...] = ()
    kei_witness: tuple[int, int] | None = None
    orbit_count: int | None = None
    fixed_two_torsion: tuple[int, ...] | None = None
    outcome: str = "ok"

    @property
    def bruteforce_count(self) -> int | None:
        return None if self.classes_bruteforce is None else len(self.classes_bruteforce)

    @property
    def theorem_count(self) -> int | None:
        return None if self.classes_theorem is None else len(self.classes_theorem)


# -- the decision procedure -----------------------------------------------------

def check_good_involution(
    q: FiniteQuandle, rho: Sequence[int]
) -> InvolutionViolation | None:
    """None if rho is a good involution, else the first violated condition.

    Conditions are scanned in a fixed order (involution, equivariance,
    column) with lexicographically smallest witnesses.
    """
    n = q.order
    p = perms.as_permutation(rho, n)
    for x in range(n):
        if p[p[x]] != x:
            return InvolutionViolation("involution", (x,))
    op = q.op
    for x in range(n):
        row = op[x]
        prow = op[p[x]]
        for y in range(n):
            if p[row[y]] != prow[y]:
                return InvolutionViolation("equivariance", (x, y))
    inv_op = q.inv_op
    for x in range(n):
        row = op[x]
        irow = inv_op[x]
        for y in range(n):
            if row[p[y]] != irow[y]:
                return InvolutionViolation("column", (x, y))
    return None


def is_good_involution(q: FiniteQuandle, rho: Sequence[int]) -> bool:
    return check_good_involution(q, rho) is None


def symmetric_quandle(q: FiniteQuandle, rho: Sequence[int]) -> SymmetricQuandle:
    p = perms.as_permutation(rho, q.order)
    violation = check_good_involution(q, p)
    if violation is not None:
        raise MalformedPermutation(
            f"not a good involution: {violation.condition} fails at {violation.witness}"
        )
    return SymmetricQuandle(quandle=q, rho=p)


# -- enumeration ----------------------------------------------------------------

def _good_involutions(q: FiniteQuandle, budget: SearchBudget) -> list[tuple[int, ...]]:
    """All good involutions of q, in lexicographic order.

    The search takes no table: each y's candidates are the elements whose
    column equals y's inverse column (the column condition), and each
    distinct non-identity column is an intertwined pair (equivariance).
    Every pair that propagating an assignment through the table would imply
    is one of these column pairs, since the images meet the column
    condition, so the table would prune nothing more.
    """
    by_column: dict[tuple[int, ...], list[int]] = {}
    for z, column in enumerate(zip(*q.op)):
        by_column.setdefault(column, []).append(z)
    identity = perms.identity_perm(q.order)
    return _iso_search(
        find_all=True,
        budget=budget,
        pairs=[(column, column) for column in by_column if column != identity],
        candidates=[by_column.get(column, ()) for column in zip(*q.inv_op)],
        involutive=True,
    )


def enumerate_good_involutions(
    q: FiniteQuandle, budget: int | None = None
) -> list[SymmetricQuandle]:
    """Complete, duplicate-free list of good involutions, lexicographic order."""
    rhos = _good_involutions(q, SearchBudget(budget))
    return [SymmetricQuandle(quandle=q, rho=p) for p in rhos]


def exists_good_involution_galex(group: FiniteGroup, phi: GroupAutomorphism) -> bool:
    """A twisted-conjugation quandle admits a good involution iff it is a kei."""
    return is_kei(galex(group, phi))


# -- the closed form --------------------------------------------------------------

def rho_r(group: FiniteGroup, phi: GroupAutomorphism, r: int) -> tuple[int, ...]:
    """Left translation x -> r x for a fixed self-inverse element r."""
    if r not in fixed_two_torsion(group, phi):
        raise NotFixedTwoTorsion(r)
    return tuple(group.product[r][x] for x in range(group.order))


def good_involutions_closed_form(
    group: FiniteGroup, phi: GroupAutomorphism
) -> list[SymmetricQuandle]:
    """Left translations by fixed self-inverse elements, for connected keis.

    Every returned map is re-verified against the definition; off the
    connected-kei hypotheses the closed form is wrong, so this refuses
    rather than guessing (see the dihedral quandle of order 4).
    """
    q = galex(group, phi)
    # the translations are read off the group: no search, so no budget
    result = _analyze_strict(q, 0, theorem=True)
    return [SymmetricQuandle(quandle=q, rho=p) for p in result.good_involutions]


# -- classification ----------------------------------------------------------------

def symmetric_quandle_isomorphic(
    a: SymmetricQuandle, b: SymmetricQuandle, budget: int | None = None
) -> QuandleMap | None:
    """First op-preserving bijection intertwining the two involutions, if any.

    Absence is conclusive: the underlying search is exhaustive (up to its
    node budget, which raises rather than silently truncating).
    """
    if a.quandle.order != b.quandle.order:
        return None
    tracker = SearchBudget(budget)
    found = _iso_search(
        a.quandle.op,
        b.quandle.op,
        find_all=False,
        budget=tracker,
        pairs=[(a.rho, b.rho)],
    )
    if not found:
        return None
    return QuandleMap(source=a.quandle, target=b.quandle, perm=found[0])


def _partition_by_isomorphism(
    q: FiniteQuandle,
    rhos: list[tuple[int, ...]],
    budget: SearchBudget,
) -> tuple[tuple[int, ...], ...]:
    """Union-find partition of the involution list under symmetric isomorphism.

    Only pairs with equal cycle type are searched (conjugate permutations
    must share it).  A witness f joining root i to a representative is also
    applied as a conjugation f . rho . f^-1 to the open roots: those past i
    that are still their own root, one node each.  That links far more
    pairs than the single search that produced it.  A root left open is
    searched against every representative when the loop reaches it, and
    the searches are exhaustive, so a failure against all of them is
    conclusive however much the witnesses linked.
    """
    m = len(rhos)
    index = {p: i for i, p in enumerate(rhos)}
    parent = list(range(m))
    # the roots the main loop has not reached yet, pruned as they are joined
    open_roots = list(range(m))
    # (index, cycle type) of each class representative, the smallest index of
    # its class and so its union-find root
    reps: list[tuple[int, tuple[int, ...]]] = []
    for i in range(m):
        if parent[i] != i:
            continue
        kind = perms.cycle_type(rhos[i])
        for r, r_kind in reps:
            if r_kind != kind:
                continue
            found = _iso_search(
                q.op, q.op, find_all=False, budget=budget, pairs=[(rhos[r], rhos[i])]
            )
            if not found:
                continue
            _join(parent, r, i)
            open_roots = [j for j in open_roots if j > i and parent[j] == j]
            budget.spend(len(open_roots))
            # f . p . f^-1, each step an itemgetter call that builds the tuple in C
            f = found[0]
            after_inverse = itemgetter(*perms.invert(f))
            for j in open_roots:
                k = index.get(itemgetter(*after_inverse(rhos[j]))(f))
                if k is None:
                    raise InternalConsistencyError(
                        "conjugate of a good involution is missing from the oracle list"
                    )
                _join(parent, j, k)
            break
        else:
            reps.append((i, kind))
    return _blocks(parent)


def _theorem_classes(
    phi: GroupAutomorphism, fixed: tuple[int, ...], budget: SearchBudget
) -> tuple[tuple[int, ...], ...]:
    """Orbits of the centralizer of the twist phi on the fixed self-inverse elements."""
    position = {r: i for i, r in enumerate(fixed)}
    restricted = []
    table = phi.group.product
    centralizer = _iso_search(
        table, table, find_all=True, budget=budget, pairs=[(phi.perm, phi.perm)]
    )
    for psi in centralizer:
        images = [psi[r] for r in fixed]
        if any(img not in position for img in images):
            raise InternalConsistencyError(
                "fixed self-inverse set is not stable under the centralizer"
            )
        restricted.append([position[img] for img in images])
    part = orbits_under(restricted, len(fixed))
    return tuple(tuple(fixed[i] for i in orbit) for orbit in part.orbits)


def _classes_agree(
    rhos: list[tuple[int, ...]],
    brute: tuple[tuple[int, ...], ...],
    theorem: tuple[tuple[int, ...], ...],
    translation: dict[int, tuple[int, ...]],
) -> bool:
    """Equal class counts, each orbit's translations in one brute-force
    class, and distinct orbits in distinct classes."""
    if len(brute) != len(theorem):
        return False
    index = {p: i for i, p in enumerate(rhos)}
    member_class = {i: label for label, members in enumerate(brute) for i in members}
    labels = []
    for cls in theorem:
        found = {member_class.get(index.get(translation[r])) for r in cls}
        if len(found) != 1 or None in found:
            return False
        labels.append(found.pop())
    return len(set(labels)) == len(labels)


def _analyze(
    q: FiniteQuandle,
    budget: SearchBudget,
    *,
    oracle: bool = False,
    theorem: bool = False,
    classify: bool = False,
    reuse: dict | None = None,
) -> SqClassification:
    """The one analysis of a quandle behind every classification and report.

    The kei witness, the inner orbits and, when q records its (group,
    automorphism) origin, the fixed self-inverse elements are always
    computed.  The oracle route enumerates every good involution.  The
    theorem route takes the left translations by fixed self-inverse
    elements; it needs a connected kei with an origin, and when its
    hypotheses fail it raises HypothesisNotMet if it was asked for alone
    and is skipped with a note beside the oracle.  Without the oracle the
    translations are checked against the definition, with it against the
    oracle's list.  `classify` partitions the lists the routes produced and,
    with both routes, decides agreement.  Every search charges `budget`;
    when it runs out the result has outcome "budget" and no route fields.

    `reuse` is a dict that a caller passing the same routes to many quandles
    keeps across the calls.  It maps an op table to the involution list, the
    brute-force classes and the nodes those two steps spent; on a hit they
    are taken from it and the same nodes are charged to `budget`, so the
    budget outcome is what recomputing would give.  Only searches that
    finished within the budget are stored.
    """
    origin = q.origin
    witness = kei_witness(q)
    orbits = inner_orbits(q)
    fixed = None if origin is None else fixed_two_torsion(origin.group, origin)
    facts = dict(
        order=q.order,
        origin=origin,
        kei_witness=witness,
        orbit_count=orbits.count,
        fixed_two_torsion=fixed,
    )
    # (hypothesis, note prefix, detail) of the first connected-kei hypothesis
    # that fails
    failure = None
    if theorem and witness is not None:
        detail = f"operation and inverse operation differ at {witness}"
        failure = "kei", "not a kei", detail
    elif theorem and orbits.count != 1:
        failure = "connected", "not connected", f"{orbits.count} inner orbits"
    if failure is not None and not oracle:
        raise HypothesisNotMet(failure[0], failure[2])

    rhos = brute = classes = agreement = None
    try:
        if oracle:
            hit = None if reuse is None else reuse.get(q.op)
            if hit is None:
                start = budget.used
                rhos = _good_involutions(q, budget)
                if classify:
                    brute = _partition_by_isomorphism(q, rhos, budget)
                if reuse is not None:
                    reuse[q.op] = rhos, brute, budget.used - start
            else:
                rhos, brute, nodes = hit
                budget.spend(nodes)
        if theorem and failure is None:
            translation = {r: origin.group.product[r] for r in fixed}
            if not oracle:
                for r, p in translation.items():
                    violation = check_good_involution(q, p)
                    if violation is not None:
                        raise InternalConsistencyError(
                            f"translation by {r} is not a good involution: {violation}"
                        )
                rhos = sorted(translation.values())
            if classify:
                classes = _theorem_classes(origin, fixed, budget)
                if oracle:
                    agreement = _classes_agree(rhos, brute, classes, translation)
    except SearchBudgetExceeded as exc:
        return SqClassification(
            **facts, outcome="budget", notes=(f"cross-check aborted: {exc}",)
        )
    return SqClassification(
        **facts,
        good_involutions=None if rhos is None else tuple(rhos),
        classes_bruteforce=brute,
        classes_theorem=classes,
        agreement=agreement,
        notes=() if failure is None else (f"{failure[1]}: {failure[2]}",),
    )


def _analyze_strict(
    q: FiniteQuandle, budget: int | None, **routes: bool
) -> SqClassification:
    """`_analyze` under a fresh budget; raises SearchBudgetExceeded if it runs out."""
    tracker = SearchBudget(budget)
    result = _analyze(q, tracker, **routes)
    if result.outcome == "budget":
        raise SearchBudgetExceeded(tracker.limit)
    return result


def classify_sq_bruteforce(
    q: FiniteQuandle, budget: int | None = None
) -> SqClassification:
    """Enumerate good involutions, then partition them by exhaustive search."""
    return _analyze_strict(q, budget, oracle=True, classify=True)


def classify_sq_theorem(
    group: FiniteGroup, phi: GroupAutomorphism, budget: int | None = None
) -> SqClassification:
    """Classify via centralizer orbits on the fixed self-inverse elements.

    Valid only when the twisted-conjugation quandle is a connected kei; on
    anything else this raises and the caller must fall back to the
    brute-force route.
    """
    return _analyze_strict(galex(group, phi), budget, theorem=True, classify=True)


def cross_check_sq(
    group: FiniteGroup, phi: GroupAutomorphism, budget: int | None = None
) -> SqClassification:
    """Run the brute-force classifier, and the orbit classifier when it applies.

    Agreement means: equal class counts, and the translations belonging to
    each centralizer orbit all land in one brute-force class, distinct
    orbits in distinct classes.  When a hypothesis fails the orbit route is
    skipped and the notes say which one.  One budget bounds both routes.
    """
    return _analyze_strict(
        galex(group, phi), budget, oracle=True, theorem=True, classify=True
    )
