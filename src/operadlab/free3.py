"""Arity-3 component of the free operad on binary generators.

A generator of symmetry type ``none`` spans a two-dimensional regular
slot pair (the operation and its opposite); ``comm``/``anti``
generators span one slot on which the transposition acts by +1 / -1.
The canonical basis of the arity-3 component consists of the left-comb
monomials

    B(f, g, l)  =  f(g(a, b), l),      (a, b) = (succ(l), succ(succ(l)))

over ordered slot pairs (f, g) and the "lone" variable l in {x, y, z}
(cyclic successor order x -> y -> z -> x).  The basis index is
``(f * dim + g) * 3 + l``.  Its size is 3 * dim(E)^2.

A monomial is a tree of two vertices joined by an edge E, with the
external legs 0 (the root) and 1, 2, 3 (x, y, z).  A vertex carries a
slot and the cyclic order (output, input 1, input 2) of its flags;
rotating it is free, reversing it applies the transposition to its slot.
`_normalize` makes the vertex holding leg 0 the outer one, rotates leg 0
or E into each output, and reverses the outer vertex unless E is its
first input and the inner one unless its inputs are (succ(l),
succ(succ(l))) for the lone leaf l.  The extended symmetric group on
{0, 1, 2, 3} acts on the right by relabelling the legs, and the left
involution ``LAMBDA`` reverses every vertex; both are signed slot
permutations, realised by `EShape.action`.  A permutation is the tuple g
of its images, leg i going to g[i].  The action is a right action:
(w.a).b = w.(a then b), where (a then b)[i] = b[a[i]].  The +1/-1
eigenspaces of ``LAMBDA`` are the even/odd parts of the bracket-parity
splitting.
"""

from __future__ import annotations

import functools
import itertools

from .scalar import as_scalar, SC0, SC1, INV_SQRT2, RESIDUE_P

VARS = ("x", "y", "z")


class Free3Error(ValueError):
    pass


# ---------------------------------------------------------------------------
# generator shapes and slots
# ---------------------------------------------------------------------------

class EShape:
    """The arity-2 generator module: an ordered list of (name, symmetry)."""

    def __init__(self, gens):
        gens = tuple((str(n), str(s)) for n, s in gens)
        names = [n for n, _ in gens]
        dups = sorted({n for n in names if names.count(n) > 1})
        if dups:
            raise Free3Error(f"duplicate generator names: {', '.join(dups)}")
        for n, s in gens:
            if s not in ("comm", "anti", "none"):
                raise Free3Error(f"unknown symmetry {s!r} for generator {n!r}")
        slots = []
        for gi, (n, s) in enumerate(gens):
            slots.append((gi, 0))
            if s == "none":
                slots.append((gi, 1))
        self.gens = gens
        self.slots = tuple(slots)
        self.dim = len(slots)
        self._slot_of = {sl: i for i, sl in enumerate(slots)}
        self._by_name = {n: gi for gi, (n, _) in enumerate(gens)}
        self._actions = {}

    def __eq__(self, other):
        return isinstance(other, EShape) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"EShape({list(self.gens)})"

    def slot(self, name: str, version: int = 0) -> int:
        gi = self._by_name.get(name)
        if gi is None:
            raise Free3Error(f"unknown generator {name!r}")
        if version and self.gens[gi][1] != "none":
            raise Free3Error(f"generator {name!r} has a single slot")
        return self._slot_of[(gi, version)]

    def tau(self, slot: int):
        """Right transposition on one slot: returns (new_slot, sign)."""
        gi, ver = self.slots[slot]
        sym = self.gens[gi][1]
        if sym == "none":
            return self._slot_of[(gi, 1 - ver)], 1
        return slot, (1 if sym == "comm" else -1)

    def tau_term(self, c, slot: int):
        """The transposition image of the signed slot term c * slot."""
        t, sign = self.tau(slot)
        return (c if sign == 1 else -c), t

    def action(self, element) -> "ActionMatrix":
        """The signed slot permutation of a group element, or of LAMBDA,
        built once per instance (equal shapes do not share matrices)."""
        m = self._actions.get(element)
        if m is None:
            m = self._actions[element] = ActionMatrix(self, element)
        return m

    # -- canonical basis -----------------------------------------------------

    @property
    def basis_size(self) -> int:
        return 3 * self.dim * self.dim

    def index(self, f: int, g: int, l: int) -> int:
        return (f * self.dim + g) * 3 + l

    def basis_triple(self, idx: int):
        fg, l = divmod(idx, 3)
        f, g = divmod(fg, self.dim)
        return f, g, l


def basis_vector(shape: EShape, idx: int):
    v = [SC0] * shape.basis_size
    v[idx] = SC1
    return tuple(v)


# ---------------------------------------------------------------------------
# monomials: two oriented vertices, normalised into the canonical basis
# ---------------------------------------------------------------------------

EDGE = 4    # the internal edge, a flag of both vertices; legs are 0..3


def _normalize(shape: EShape, u, w):
    """(sign, basis index) of the tree with vertices u and w joined by EDGE.

    A vertex is (slot, flags), its flags being (output, input 1, input 2)
    in cyclic order; see the module docstring for the rule.
    """
    (f, fo), (g, go) = (w, u) if 0 in w[1] else (u, w)
    if sorted(fo + go) != [0, 1, 2, 3, EDGE, EDGE] or fo.count(EDGE) != 1:
        raise Free3Error("not a two-vertex tree on the legs 0, 1, 2, 3")
    k = fo.index(0)
    e, l = fo[k - 2], fo[k - 1]
    sign = 1
    if e != EDGE:
        f, sign = shape.tau(f)
        l = e
    k = go.index(EDGE)
    if (go[k - 2], go[k - 1]) != (l % 3 + 1, (l + 1) % 3 + 1):
        g, s = shape.tau(g)
        sign *= s
    return sign, shape.index(f, g, l - 1)


# ---------------------------------------------------------------------------
# the extended symmetric group on {0, 1, 2, 3}
# ---------------------------------------------------------------------------

GAMMA3 = (1, 2, 3, 0)        # the cycle (0 1 2 3)
TAU12 = (0, 2, 1, 3)
TAU23 = (0, 1, 3, 2)
CYC123 = (0, 2, 3, 1)        # x -> y -> z -> x

# the inner symmetric group: the elements that fix the output leg 0
SIGMA3 = tuple((0, a + 1, b + 1, c + 1)
               for a, b, c in itertools.permutations(range(3)))

SIGMA3_PLUS = tuple(itertools.permutations(range(4)))


def apply_perm_to_basis(shape: EShape, idx: int, g: tuple):
    """Right action of g on a canonical basis monomial: (sign, new_index).

    Relabels the four external legs of the two-vertex tree by i -> g[i]
    and normalises the result, which re-roots it at the new leg 0.
    """
    f, gg, l = shape.basis_triple(idx)
    return _normalize(shape, (f, (g[0], EDGE, g[l + 1])),
                      (gg, (EDGE, g[(l + 1) % 3 + 1], g[(l + 2) % 3 + 1])))


class _Lambda:
    __slots__ = ()

    def __repr__(self):
        return "LAMBDA"


LAMBDA = _Lambda()   # the left involution, as an argument of EShape.action


def lambda_basis(shape: EShape, idx: int):
    """The left involution: reverse every vertex (τ on both slots)."""
    f, g, l = shape.basis_triple(idx)
    f2, s1 = shape.tau(f)
    g2, s2 = shape.tau(g)
    return s1 * s2, shape.index(f2, g2, l)


# ---------------------------------------------------------------------------
# vector-level actions
# ---------------------------------------------------------------------------

def right_action(shape: EShape, vec, g: tuple):
    return shape.action(g).apply(vec)


def left_lambda(shape: EShape, vec):
    return shape.action(LAMBDA).apply(vec)


class ActionMatrix:
    """A group element (right leg-relabelling action) or LAMBDA (the left
    involution) realised as a signed slot permutation of the canonical
    basis of the arity-3 component."""

    def __init__(self, shape: EShape, element):
        self.shape = shape
        self.element = element
        cols = []
        for i in range(shape.basis_size):
            if element is LAMBDA:
                s, j = lambda_basis(shape, i)
            else:
                s, j = apply_perm_to_basis(shape, i, element)
            cols.append((j, s))
        self._cols = tuple(cols)

    def apply(self, vec):
        out = [SC0] * self.shape.basis_size
        for i, c in enumerate(vec):
            if not c:
                continue
            j, s = self._cols[i]
            out[j] = out[j] + (c if s == 1 else -c)
        return tuple(out)

    __call__ = apply


# ---------------------------------------------------------------------------
# exact subspaces (reduced row echelon form over the Scalar field)
# ---------------------------------------------------------------------------

class Subspace:
    """Row-reduced span of the vectors, closed under the actions (see
    `_rref`), in the arity-3 component; the representation is canonical,
    so equality of subspaces is equality of data."""

    def __init__(self, shape: EShape, vectors=(), actions=()):
        self.shape = shape
        self.ambient = shape.basis_size
        self.rows, self.pivots = _rref(vectors, self.ambient, actions)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        return tuple(_eliminate(list(vec), self.rows, self.pivots, self.ambient))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.shape == other.shape
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.shape, self.rows))

    def sum(self, other: "Subspace") -> "Subspace":
        _compat(self, other)
        return Subspace(self.shape, list(self.rows) + list(other.rows))

    @functools.cached_property
    def residues(self):
        """The residue view: the rows' entries mapped to Z/P by
        `Scalar.residue`, as int lists, or None if an entry has a pole.
        Computed at most once per instance.  The rows have pivot 1 and 0 at
        the other pivots, so the exact remainder of a vector a modulo this
        space is a - sum a[p] row_p, and its residue follows from these rows
        alone (`_residue_rank` takes them as its echelon form)."""
        return _residues(self.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The combinations sum c_i a_i of this space's rows that `other`
        contains: the null space of the remainders r_i = other.reduce(a_i).

        Only this space's rows are reduced, and the elimination that finds
        the null space is k columns wide (k = self.dim), never 2n.  Pass the
        space with the simpler coefficients (e.g. a rational one) as
        `other`, so that the reduction stays cheap.

        Certificate first: the rank mod P of the residues of the r_i
        comes from the two residue views alone (`_residue_rank`), and a
        rank k proves a k x k minor nonzero over the tower
        (`Scalar.residue` is a ring homomorphism), so the intersection is
        0 and no exact remainder is computed.  A pole in either space or a
        shorter rank proves nothing, and the exact elimination runs
        unchanged."""
        _compat(self, other)
        k = self.dim
        mine, theirs = self.residues, other.residues
        if mine is not None and theirs is not None:
            if _residue_rank(mine, theirs, other.pivots) == k:
                return Subspace(self.shape)
        rems = [other.reduce(r) for r in self.rows]
        # a coordinate of the remainders is one linear condition on c
        rows, pivots = _rref([c for c in zip(*rems) if any(c)], k)
        # each free column f gives c_f = 1 and c_p = -row_p[f] at the pivots
        inter = []
        for f in sorted(set(range(k)) - set(pivots)):
            v = list(self.rows[f])
            for p, row in zip(pivots, rows):
                c = row[f]
                if c:
                    v = [a - c * b if b else a for a, b in zip(v, self.rows[p])]
            inter.append(v)
        return Subspace(self.shape, inter)

    def is_invariant(self, action) -> bool:
        """Whether `action` (vec -> vec) maps every row into this space.

        Certificate first: each image, as it is built, is checked by the
        residue of its exact remainder, which comes from the residue view
        alone (`_residue_rank` of the image is 0 or 1); a nonzero one
        proves that image outside the space (`Scalar.residue` is a ring
        homomorphism), and the answer is False with no exact reduction and
        no further image.  A pole in the rows or in an image, or zero
        residues throughout, prove nothing, and the images are then reduced
        exactly."""
        rows = self.residues
        images = []
        for r in self.rows:
            v = action(r)
            if rows is not None:
                a = _residues([v])
                if a is not None and _residue_rank(a, rows, self.pivots):
                    return False
            images.append(v)
        return all(self.contains(v) for v in images)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _compat(a: Subspace, b: Subspace):
    if a.shape != b.shape:
        raise Free3Error("subspace shapes differ")


def _rref(vectors, width, actions=()):
    """Reduced echelon form of the span of the vectors, closed under the
    actions (callables vec -> tuple): rows and their pivot columns.

    One worklist, read once from the vectors: each item is inserted, and
    each one kept (not already in the span) appends its images to the list,
    except an image equal to one appended before.  The kept vectors span
    the result and each of their images is inserted, so the span is closed
    when the list runs out.  The form is canonical: the order does not show."""
    rows: list = []
    pivots: list = []
    work, seen = list(vectors), set()
    for v in work:      # work grows while it is read
        if _rref_insert(rows, pivots, v, width) is not None:
            for ap in actions:
                w = ap(v)
                if w not in seen:
                    seen.add(w)
                    work.append(w)
    return tuple(tuple(r) for r in rows), tuple(pivots)


def _eliminate(vec, rows, pivots, width):
    """Clear the list vec (in place) at every pivot column of the echelon
    rows, and return it."""
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            for k in range(p, width):
                if row[k]:
                    vec[k] = vec[k] - c * row[k]
    return vec


def _rref_insert(rows, pivots, vec, width):
    """Reduce vec against the rows; if independent, normalise it,
    back-eliminate, and insert in pivot order.  Returns the pivot column or
    None when the vector was already in the span.  A pivot entry that is
    already 1 (most of them on rational relations) needs no inverse and
    no scaling."""
    if len(vec) != width:
        raise Free3Error(f"vector length {len(vec)} != ambient {width}")
    vec = _eliminate(list(vec), rows, pivots, width)
    piv = next((k for k in range(width) if vec[k]), None)
    if piv is None:
        return None
    if vec[piv] != SC1:
        inv = vec[piv].inverse()
        vec = [c * inv if c else SC0 for c in vec]
        vec[piv] = SC1
    for row in rows:
        c = row[piv]
        if c:
            for k in range(piv, width):
                if vec[k]:
                    row[k] = row[k] - c * vec[k]
    at = next((i for i, p in enumerate(pivots) if p > piv), len(pivots))
    rows.insert(at, vec)
    pivots.insert(at, piv)
    return piv


def _residues(vectors):
    """The vectors' entries mapped to Z/P by `Scalar.residue`, as int
    lists, or None when an entry has a pole."""
    out = []
    for vec in vectors:
        row = [c.residue() if c else 0 for c in vec]
        if None in row:
            return None
        out.append(row)
    return out


def _residue_rank(vectors, rows, pivots):
    """The rank in Z/P of the remainders of int vectors (residues, see
    `_residues`) modulo the residue echelon form (rows, pivots), whose rows
    have pivot 1; pass (), () for the plain rank.  The residue map is a
    ring homomorphism, so a minor nonzero mod P is nonzero over the tower:
    this is a lower bound for the exact rank of the remainders of the
    vectors the residues came from, equal to it unless the point is
    unlucky."""
    echelon, found = list(rows), list(pivots)
    for row in vectors:
        for prow, p in zip(echelon, found):
            c = row[p]
            if c:
                row = [(a - c * b) % RESIDUE_P for a, b in zip(row, prow)]
        piv = next((i for i, a in enumerate(row) if a), None)
        if piv is not None:
            inv = pow(row[piv], -1, RESIDUE_P)
            echelon.append([a * inv % RESIDUE_P for a in row])
            found.append(piv)
    return len(echelon) - len(rows)


def span_closure(shape: EShape, vectors, actions=()) -> Subspace:
    """Span of the vectors, closed under the actions (matrices or callables
    vec -> vec), which see each kept vector once: len(actions) * dim calls."""
    return Subspace(shape, vectors, actions)


def sigma3_closure(shape: EShape, vectors) -> Subspace:
    acts = [lambda v, g=g: right_action(shape, v, g) for g in (TAU12, CYC123)]
    return span_closure(shape, vectors, acts)


# ---------------------------------------------------------------------------
# slot substitutions: polarization and generator maps
# ---------------------------------------------------------------------------

class SlotMap:
    """A linear, transposition-equivariant map between generator modules,
    given per source slot as a list of (Scalar, target_slot); applied at
    both vertices it induces a map between arity-3 components."""

    def __init__(self, src: EShape, dst: EShape, images):
        self.src = src
        self.dst = dst
        self.images = {s: tuple((as_scalar(c), t) for c, t in imgs)
                       for s, imgs in images.items()}
        if set(self.images) != set(range(src.dim)):
            raise Free3Error("slot map must cover every source slot")

    def check_equivariant(self) -> bool:
        for s in range(self.src.dim):
            s2, sign = self.src.tau(s)
            lhs = [self.dst.tau_term(c, t) for c, t in self.images[s]]
            rhs = [(c if sign == 1 else -c, t) for c, t in self.images[s2]]
            if _collect(lhs, self.dst.dim) != _collect(rhs, self.dst.dim):
                return False
        return True

    def matrix_rank(self) -> int:
        vecs = [_collect(self.images[s], self.dst.dim) for s in range(self.src.dim)]
        rows, _ = _rref(vecs, self.dst.dim)
        return len(rows)

    def is_invertible(self) -> bool:
        return self.src.dim == self.dst.dim and self.matrix_rank() == self.src.dim

    def apply(self, vec):
        out = [SC0] * self.dst.basis_size
        for i, coeff in enumerate(vec):
            if not coeff:
                continue
            f, g, l = self.src.basis_triple(i)
            for cf, f2 in self.images[f]:
                for cg, g2 in self.images[g]:
                    j = self.dst.index(f2, g2, l)
                    out[j] = out[j] + coeff * cf * cg
        return tuple(out)

    def apply_subspace(self, space: Subspace) -> Subspace:
        return Subspace(self.dst, [self.apply(r) for r in space.rows])


def _collect(imgs, dim):
    out = [SC0] * dim
    for c, t in imgs:
        out[t] = out[t] + c
    return tuple(out)


def _polarized_pairs(shape: EShape) -> dict:
    """Each no-symmetry name n -> its (comm, anti) names n_s, n_a, or the
    first free n_s2, n_a2, ... if a kept name or an earlier pair took one."""
    taken, pairs = {n for n, s in shape.gens if s != "none"}, {}
    for n in [n for n, s in shape.gens if s == "none"]:
        sfx = ""
        while {n + "_s" + sfx, n + "_a" + sfx} & taken:
            sfx = str(int(sfx or 1) + 1)
        pairs[n] = (n + "_s" + sfx, n + "_a" + sfx)
        taken.update(pairs[n])
    return pairs


def _polarization(src: EShape, dst: EShape, pairs) -> SlotMap:
    """The slot map that sends each source slot pair (x, y) of `pairs` to
    ((x' + y')/sqrt(2), (x' - y')/sqrt(2)), where (x', y') is the dst slot
    pair given with it, and every other slot to the dst slot with the same
    name and version.  On a pair this is (1/sqrt(2))[[1, 1], [1, -1]],
    which squares to 1: polarizing and depolarizing are the same map."""
    images = {}
    for (x, y), (x2, y2) in pairs:
        images[x] = [(INV_SQRT2, x2), (INV_SQRT2, y2)]
        images[y] = [(INV_SQRT2, x2), (-INV_SQRT2, y2)]
    for k, (gi, ver) in enumerate(src.slots):
        if k not in images:
            images[k] = [(SC1, dst.slot(src.gens[gi][0], ver))]
    return SlotMap(src, dst, images)


def polarize_map(shape: EShape, pairing=None) -> SlotMap:
    """m -> (c + a)/sqrt(2), m~ -> (c - a)/sqrt(2); other slots pass through.

    pairing maps each no-symmetry generator name to its (comm, anti) pair of
    names, by default the `_polarized_pairs` naming.  The target shape puts
    each paired generator's pair in its place and keeps every other one.
    """
    if pairing is None:
        pairing = _polarized_pairs(shape)
    dst = EShape([g for n, s in shape.gens for g in (
        zip(pairing[n], ("comm", "anti")) if n in pairing else [(n, s)])])
    return _polarization(shape, dst, [
        ((shape.slot(n), shape.slot(n, 1)), (dst.slot(cn), dst.slot(an)))
        for n, (cn, an) in pairing.items()])


def depolarize_map(shape: EShape, pairing) -> SlotMap:
    """Inverse direction: (comm c, anti a) pairs assemble into one
    no-symmetry generator.  pairing maps target generator name ->
    (comm source name, anti source name).  The target shape puts each
    target generator in the place of its comm source, drops the anti
    source and keeps every other generator under its own name."""
    comm = {cn: tgt for tgt, (cn, _) in pairing.items()}
    anti = {an for _, an in pairing.values()}
    dst = EShape([(comm[n], "none") if n in comm else (n, s)
                  for n, s in shape.gens if n not in anti])
    return _polarization(shape, dst, [
        ((shape.slot(cn), shape.slot(an)), (dst.slot(tgt), dst.slot(tgt, 1)))
        for tgt, (cn, an) in pairing.items()])


def gamma_plus_split(shape: EShape):
    """The bracket-parity splitting (Gamma_plus, Gamma_minus): each vertex
    label runs over the transposition eigenvectors of its generator
    (e_0 + e_1 and e_0 - e_1 on the slot pair of a no-symmetry generator,
    the single slot of a comm (+1) or anti (-1) one); the monomials of two
    eigenvectors at a lone variable span Gamma_plus or Gamma_minus by the
    product of their eigenvalues."""
    eigen = []      # (eigenvalue, ((slot, coefficient), ...))
    for gi, (_, sym) in enumerate(shape.gens):
        s0 = shape._slot_of[(gi, 0)]
        if sym == "none":
            s1 = shape._slot_of[(gi, 1)]
            eigen += [(1, ((s0, SC1), (s1, SC1))), (-1, ((s0, SC1), (s1, -SC1)))]
        else:
            eigen.append((1 if sym == "comm" else -1, ((s0, SC1),)))
    plus_vecs, minus_vecs = [], []
    for (ef, fs), (eg, gs), l in itertools.product(eigen, eigen, range(3)):
        v = [SC0] * shape.basis_size
        for (f, cf), (g, cg) in itertools.product(fs, gs):
            v[shape.index(f, g, l)] = cf * cg
        (plus_vecs if ef * eg == 1 else minus_vecs).append(v)
    return Subspace(shape, plus_vecs), Subspace(shape, minus_vecs)
