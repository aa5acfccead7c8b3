"""Good involutions: decision, enumeration, and classification.

An involution rho of a quandle is *good* when it commutes with every inner
permutation (rho(x^y) = rho(x)^y) and acting through it inverts columns
(x^rho(y) = x^(y^-1)).  The pair (quandle, rho) is a symmetric quandle.

The enumerator here is the package's independent oracle: classification
shortcuts are always cross-checked against it, never substituted for it.
It runs the package's one backtracking search on the definition itself:
involutive bijections whose images meet the column condition and that
commute with the columns x -> x^y of a generating set, and so with all.
The brute-force classes come from a union-find over the oracle's list,
joined by exhaustive isomorphism searches and by the conjugates of the
roots not yet reached under each witness found.
Exact cuts keep those searches small without changing a class.  Each
element gets values under rho that any isomorphism carries along, so pairs
are searched only when the multisets of values agree, and an element is
mapped only to elements with its values.  And since every inner permutation
commutes with every good involution, composing an isomorphism with one is
again an isomorphism, so a search maps 0 only to the smallest member of
each inner orbit.
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
)
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    OrbitPartition,
    _candidates,
    _iso_search,
    fixed_two_torsion,
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
    member.  `agreement` holds when the two partitions are equal, each
    orbit's translations being exactly one brute-force class, so every good
    involution is a translation.  A field the requested routes do not
    produce is None.
    `outcome` is "budget" only in the catalog, for an entry whose searches
    ran out of nodes; its route fields are then all None.  `orbit_count` is
    None only for a group whose automorphisms could not be listed, where no
    quandle was built.
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
    ident = perms.identity_perm(n)
    witness = perms.first_mismatch(q.op, q.op, p, ident)  # rho(x ^ y) = rho(x) ^ y
    if witness is not None:
        return InvolutionViolation("equivariance", witness)
    witness = perms.first_mismatch(q.inv_op, q.op, ident, p)  # x ^-1 y = x ^ rho(y)
    if witness is not None:
        return InvolutionViolation("column", witness)
    return None


def is_good_involution(q: FiniteQuandle, rho: Sequence[int]) -> bool:
    return check_good_involution(q, rho) is None


def _require_good_involution(q: FiniteQuandle, rho: Sequence[int]) -> None:
    violation = check_good_involution(q, rho)
    if violation is not None:
        raise MalformedPermutation(
            f"not a good involution: {violation.condition} fails at {violation.witness}"
        )


def symmetric_quandle(q: FiniteQuandle, rho: Sequence[int]) -> SymmetricQuandle:
    p = perms.as_permutation(rho, q.order)
    _require_good_involution(q, p)
    return SymmetricQuandle(quandle=q, rho=p)


# -- enumeration ----------------------------------------------------------------

def _good_involutions(q: FiniteQuandle, budget: SearchBudget) -> list[tuple[int, ...]]:
    """All good involutions of q, in lexicographic order.

    The search takes no table: each y's candidates are the elements whose
    column equals y's inverse column (the column condition), and each
    distinct non-identity column of a generating set is an intertwined pair
    (equivariance).  The y whose column S_y commutes with rho form a
    subquandle, since S_(x ^ y) = S_y . S_x . S_y^-1, so when it holds the
    generators it is all of q.  The search pushes each pair at every
    element, so an assignment's closure is its orbit under the swap and the
    group the pairs generate, which is Inn(q) either way: the tree and the
    node count are those that passing every column gives.  Every pair that
    propagating an assignment through the table would imply is one that
    the column pairs imply, since the images meet the column condition, so
    the table would prune nothing more.
    """
    columns = q.columns
    by_column: dict[tuple[int, ...], list[int]] = {}
    for z, column in enumerate(columns):
        by_column.setdefault(column, []).append(z)
    pairs = dict.fromkeys(columns[y] for y in q.generators)
    pairs.pop(perms.identity_perm(q.order), None)
    return _iso_search(
        find_all=True,
        budget=budget,
        pairs=[(column, column) for column in pairs],
        candidates=[by_column.get(column, ()) for column in zip(*q.inv_op)],
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
    """Left translation x -> r x for a fixed self-inverse element r: row r
    of the product table."""
    if not perms.is_int(r) or r not in fixed_two_torsion(group, phi):
        raise NotFixedTwoTorsion(r)
    return group.product[r]


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
    result = _analyze(q, SearchBudget(0), theorem=True)
    return [SymmetricQuandle(quandle=q, rho=p) for p in result.good_involutions]


# -- classification ----------------------------------------------------------------

def symmetric_quandle_isomorphic(
    a: SymmetricQuandle, b: SymmetricQuandle, budget: int | None = None
) -> QuandleMap | None:
    """First op-preserving bijection intertwining the two involutions, if any.

    Absence is conclusive: the underlying search is exhaustive (up to its
    node budget, which raises rather than silently truncating).  The search
    is exact only for good involutions, and a SymmetricQuandle can be built
    without `symmetric_quandle`'s check, so both involutions are checked
    here and MalformedPermutation names the first failure.
    """
    if a.quandle.order != b.quandle.order:
        return None
    _require_good_involution(a.quandle, a.rho)
    _require_good_involution(b.quandle, b.rho)
    pairs = [(a.rho, b.rho)]
    found = _iso_search(
        a.quandle.op,
        b.quandle.op,
        find_all=False,
        budget=SearchBudget(budget),
        candidates=_candidates(a.quandle.column_types, b.quandle.column_types, pairs),
        pairs=pairs,
    )
    if not found:
        return None
    return QuandleMap(source=a.quandle, target=b.quandle, perm=found[0])


def _blocks(parent: list[int]) -> tuple[tuple[int, ...], ...]:
    """The blocks as ascending tuples, ordered by smallest member.  No parent
    exceeds its child, so ascending x finds its parent pointing at the root."""
    blocks: dict[int, list[int]] = {}
    for x, p in enumerate(parent):
        root = parent[x] = parent[p]
        blocks.setdefault(root, []).append(x)
    return tuple(tuple(members) for members in blocks.values())


def _partition_by_isomorphism(
    q: FiniteQuandle,
    rhos: Sequence[tuple[int, ...]],
    budget: SearchBudget,
    orbits: OrbitPartition,
) -> tuple[tuple[int, ...], ...]:
    """Union-find partition of the involution list under symmetric isomorphism.

    `orbits` are the inner orbits of q.  Each rho gets five values at each
    element x: the cycle type of x's column S_x (c -> c ^ x), whether rho
    fixes x, whether rho(x) lies in x's inner orbit, the cycle type of
    S_x . rho, and the number of y with x ^ y = rho(x).  An isomorphism f
    with f . rho1 = rho2 . f maps columns to columns (f . S_x . f^-1 =
    S_f(x)) and inner orbits to inner orbits, so it carries each value at x
    to the same value at f(x).

    The values are computed once per inner orbit, at its smallest member,
    and kept in a list aligned with the orbits; they hold at every member,
    since an inner permutation s, which is an
    automorphism of q, leaves each of them unchanged when it replaces x by
    s(x): S_s(x) = s . S_x . s^-1; rho commutes with s (equivariance), so rho
    fixes s(x) exactly when it fixes x, and rho(s(x)) = s(rho(x)) lies in
    the orbit of s(x) exactly when rho(x) lies in x's; S_s(x) . rho =
    s . (S_x . rho) . s^-1 has the cycle type of S_x . rho; and
    s(x) ^ s(y) = s(x ^ y), so y -> s(y) carries the y with x ^ y = rho(x)
    onto those with s(x) ^ y = rho(s(x)).  On a connected quandle that is
    one cycle walk per rho instead of n, and one value instead of n for
    every step below.  The elements with each value are gathered by
    appending whole orbits, then sorted, so each list ascends.

    Three cuts follow, each exact:

    - Only representatives with the same key are searched.  The key is the
      set of pairs (value, summed size of the orbits with that value):
      the multiset of the values over all elements, which any isomorphism
      keeps.  It also fixes rho's cycle type, an involution's being its
      number of fixed points.
    - Each search branches x only over the elements with x's values, which
      it reads through x's orbit.  They meet the precondition of
      `_iso_search`, so the search maps each x only to such elements.
    - Each search maps 0 only to the smallest member of an inner orbit.
      Every inner permutation s is an automorphism of q that commutes with
      every good involution (equivariance), so if f carries rho1 to rho2,
      s . f does too, and s preserves the values, so 0's candidates are a
      union of inner orbits.  An isomorphism exists exactly when one exists
      that maps 0 to an orbit minimum (McKay and Piperno's pruning, with
      Inn(Q) a symmetry group known in advance).

    A witness f joining root i to a representative is also applied as a
    conjugation f . rho . f^-1 to the open roots: those past i that are
    still their own root, one node each.  That links far more pairs than
    the single search that produced it.  The conjugates are built in one
    batch and joined by path halving, the larger root pointing at the
    smaller, so no parent exceeds its child.  A root left open is searched
    against every representative with its key when the loop reaches it,
    and the searches are exhaustive, so a failure against all of them is
    conclusive however much the witnesses linked.
    """
    m = len(rhos)
    index = {p: i for i, p in enumerate(rhos)}
    parent = list(range(m))
    # the roots the main loop has not reached yet, pruned as they are joined
    open_roots = list(range(m))
    # each element's inner orbit, as an index into orbits.orbits
    orbit_index = [0] * q.order
    for k, orbit in enumerate(orbits.orbits):
        for x in orbit:
            orbit_index[x] = k
    minima = [orbit[0] for orbit in orbits.orbits]
    op = q.op
    columns = q.columns
    column_types = [perms.cycle_type(columns[x]) for x in minima]
    # (index, values) of each class representative by key; the index is the
    # smallest of its class and so its union-find root, and the values are
    # one tuple per inner orbit
    reps: dict[frozenset, list[tuple[int, list[tuple]]]] = {}
    for i in range(m):
        if parent[i] != i:
            continue
        rho = rhos[i]
        values = [
            (
                column_types[k],
                rho[x] == x,
                orbit_index[rho[x]] == k,
                perms.cycle_type([columns[x][r] for r in rho]),
                op[x].count(rho[x]),
            )
            for k, x in enumerate(minima)
        ]
        # the elements with each value, ascending: a list of one orbit
        # already ascends, so the sort reorders only where orbits share a value
        having: dict[tuple, list[int]] = {}
        for value, orbit in zip(values, orbits.orbits):
            having.setdefault(value, []).extend(orbit)
        for members in having.values():
            members.sort()
        key = frozenset((value, len(members)) for value, members in having.items())
        bucket = reps.setdefault(key, [])
        for r, r_values in bucket:
            by_orbit = [having[value] for value in r_values]
            candidates = [by_orbit[k] for k in orbit_index]
            candidates[0] = [
                x for x, value in zip(minima, values) if value == r_values[0]
            ]
            found = _iso_search(
                op, op, find_all=False, budget=budget,
                pairs=[(rhos[r], rho)], candidates=candidates,
            )
            if not found:
                continue
            # r is the smallest of its isomorphism class, so still a root
            parent[i] = r
            open_roots = [j for j in open_roots if j > i and parent[j] == j]
            budget.spend(len(open_roots))
            # f . p . f^-1, each step an itemgetter call that builds the tuple in C
            f = found[0]
            after_inverse = itemgetter(*perms.invert(f))
            conjugates = [
                index.get(itemgetter(*after_inverse(rhos[j]))(f)) for j in open_roots
            ]
            if None in conjugates:
                raise InternalConsistencyError(
                    "conjugate of a good involution is missing from the oracle list"
                )
            for j, k in zip(open_roots, conjugates):
                while parent[j] != j:
                    parent[j] = parent[parent[j]]
                    j = parent[j]
                while parent[k] != k:
                    parent[k] = parent[parent[k]]
                    k = parent[k]
                if k < j:
                    j, k = k, j
                parent[k] = j
            break
        else:
            bucket.append((i, values))
    return _blocks(parent)


def _theorem_classes(
    phi: GroupAutomorphism, fixed: tuple[int, ...], budget: SearchBudget
) -> tuple[tuple[int, ...], ...]:
    """Orbits of the centralizer of the twist phi on the fixed self-inverse
    elements, decided by one witness search per pair tested.

    The identity is an orbit of its own.  Each other r, ascending, is tested
    against the smallest member s of each orbit found so far: an automorphism
    psi commutes with the left translations as psi . l_s = l_r . psi exactly
    when psi(s) = r, so one search with the pairs (phi, phi) and (l_s, l_r)
    finds such a psi that commutes with phi, or proves there is none.  r
    joins the first orbit that yields a witness, else it opens a new one.
    For s, r other than the identity the translations fix no element, so
    the candidates are those of the centralizer search alone.
    """
    group = phi.group
    product, types = group.product, group.column_types
    pairs = [(phi.perm, phi.perm)]
    candidates = _candidates(types, types, pairs)
    members = frozenset(fixed)
    classes: list[list[int]] = []
    for r in fixed:
        if r == group.identity:
            classes.append([r])
            continue
        for cls in classes:
            s = cls[0]
            if s == group.identity:
                continue
            found = _iso_search(
                product, product, find_all=False, budget=budget,
                pairs=[*pairs, (product[s], product[r])], candidates=candidates,
            )
            if not found:
                continue
            if {found[0][x] for x in fixed} != members:
                raise InternalConsistencyError(
                    "fixed self-inverse set is not stable under the centralizer"
                )
            cls.append(r)
            break
        else:
            classes.append([r])
    return tuple(tuple(cls) for cls in classes)


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
    oracle's list; the theorem route alone, without `classify`, notes that
    its list is the closed form.  `classify` partitions the lists the routes
    produced and, with both routes, decides agreement.  Every search charges
    `budget`, and the SearchBudgetExceeded of the search that runs out
    reaches the caller.

    `reuse` is a dict that a caller passing the same routes to many quandles
    keeps across the calls.  It maps an op table to the involution tuple, the
    brute-force classes and the nodes those two steps spent; on a hit they
    are taken from it and the same nodes are charged to `budget`, so the
    budget outcome is what recomputing would give, and every repeat of a
    table returns that one tuple object.  Only searches that finished within
    the budget are stored.
    """
    origin = q.origin
    witness = kei_witness(q)
    orbits = inner_orbits(q)
    fixed = None if origin is None else fixed_two_torsion(origin.group, origin)
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
    if oracle:
        hit = None if reuse is None else reuse.get(q.op)
        if hit is None:
            start = budget.used
            rhos = tuple(_good_involutions(q, budget))
            if classify:
                brute = _partition_by_isomorphism(q, rhos, budget, orbits)
            if reuse is not None:
                reuse[q.op] = rhos, brute, budget.used - start
        else:
            rhos, brute, nodes = hit
            budget.spend(nodes)
    if theorem and failure is None:
        # row r of the table is the translation x -> r x
        product = origin.group.product
        if not oracle:
            for r in fixed:
                violation = check_good_involution(q, product[r])
                if violation is not None:
                    raise InternalConsistencyError(
                        f"translation by {r} is not a good involution: {violation}"
                    )
            rhos = tuple(sorted(product[r] for r in fixed))
        if classify:
            classes = _theorem_classes(origin, fixed, budget)
            if oracle:
                # the orbits' translations, as oracle indices (-1 if absent),
                # must be exactly the brute-force classes
                index = {p: i for i, p in enumerate(rhos)}
                agreement = set(brute) == {
                    tuple(sorted(index.get(product[r], -1) for r in cls))
                    for cls in classes
                }
    notes = () if failure is None else (f"{failure[1]}: {failure[2]}",)
    if theorem and not (oracle or classify):
        notes = ("closed form: left translations by fixed self-inverse elements",)
    return SqClassification(
        order=q.order,
        origin=origin,
        good_involutions=rhos,
        classes_bruteforce=brute,
        classes_theorem=classes,
        agreement=agreement,
        notes=notes,
        kei_witness=witness,
        orbit_count=orbits.count,
        fixed_two_torsion=fixed,
    )


def classify_sq_bruteforce(
    q: FiniteQuandle, budget: int | None = None
) -> SqClassification:
    """Enumerate good involutions, then partition them by exhaustive search."""
    return _analyze(q, SearchBudget(budget), oracle=True, classify=True)


def classify_sq_theorem(
    group: FiniteGroup, phi: GroupAutomorphism, budget: int | None = None
) -> SqClassification:
    """Classify via centralizer orbits on the fixed self-inverse elements.

    Valid only when the twisted-conjugation quandle is a connected kei; on
    anything else this raises and the caller must fall back to the
    brute-force route.
    """
    return _analyze(
        galex(group, phi), SearchBudget(budget), theorem=True, classify=True
    )


def cross_check_sq(
    group: FiniteGroup, phi: GroupAutomorphism, budget: int | None = None
) -> SqClassification:
    """Run the brute-force classifier, and the orbit classifier when it applies.

    Agreement means the two partitions are equal: the translations by each
    centralizer orbit are exactly one brute-force class, so every good
    involution is a translation.  The orbits are decided by witness
    searches, one for each fixed self-inverse element and smallest member
    of an orbit found before it, without listing the centralizer.  When a
    hypothesis fails the orbit route is skipped and the notes say which
    one.  One budget bounds both routes.
    """
    q = galex(group, phi)
    return _analyze(q, SearchBudget(budget), oracle=True, theorem=True, classify=True)
