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

The extended symmetric group on {0, 1, 2, 3} (output leg 0 plus the
three inputs) acts on the right by relabelling the external legs of the
underlying two-vertex tree and re-rooting at the new leg 0; vertex
labels pick up a transposition action whenever the re-rooting reverses
the cyclic order of their three flags.  In the canonical basis every
group element therefore acts as a signed slot permutation.

The left involution ``LAMBDA`` flips every vertex label by the
transposition; its +1/-1 eigenspaces are the even/odd parts of the
bracket-parity splitting.  A group element and ``LAMBDA`` are both
signed slot permutations, realised by `EShape.action`.
"""

from __future__ import annotations

import itertools

from .scalar import as_scalar, SC0, SC1, INV_SQRT2

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
        if len(set(names)) != len(names):
            raise Free3Error("duplicate generator names")
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
        gi = self._by_name[name]
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

    def basis(self):
        d = self.dim
        return [(f, g, l) for f in range(d) for g in range(d) for l in range(3)]

    def index(self, f: int, g: int, l: int) -> int:
        return (f * self.dim + g) * 3 + l

    def basis_triple(self, idx: int):
        fg, l = divmod(idx, 3)
        f, g = divmod(fg, self.dim)
        return f, g, l

    def monomial_str(self, idx: int) -> str:
        """Render the basis monomial as generator applications on x, y, z."""
        f, g, l = self.basis_triple(idx)
        a, b = VARS[(l + 1) % 3], VARS[(l + 2) % 3]
        inner = self._app_str(g, a, b)
        return self._app_str(f, inner, VARS[l])

    def _app_str(self, slot: int, s: str, t: str) -> str:
        gi, ver = self.slots[slot]
        name = self.gens[gi][0]
        if ver:
            s, t = t, s
        return f"{name}({s},{t})"


def basis_vector(shape: EShape, idx: int):
    v = [SC0] * shape.basis_size
    v[idx] = SC1
    return tuple(v)


# ---------------------------------------------------------------------------
# monomials: normalisation of two-vertex trees into the canonical basis
# ---------------------------------------------------------------------------

def normalize_monomial(shape: EShape, outer_slot: int, arg1, arg2):
    """Normalise outer(arg1, arg2) to (sign, basis_index).

    Each arg is either ('var', k) with k in {0, 1, 2} or
    ('app', inner_slot, i, j) with i, j variable indices.
    """
    sign = 1
    if arg1[0] == "var" and arg2[0] == "app":
        outer_slot, s = shape.tau(outer_slot)
        sign *= s
        arg1, arg2 = arg2, arg1
    if not (arg1[0] == "app" and arg2[0] == "var"):
        raise Free3Error("monomial must compose exactly two generator applications")
    _, inner_slot, i, j = arg1
    lone = arg2[1]
    if {i, j, lone} != {0, 1, 2}:
        raise Free3Error("monomial must use each of x, y, z exactly once")
    a, b = (lone + 1) % 3, (lone + 2) % 3
    if (i, j) == (b, a):
        inner_slot, s = shape.tau(inner_slot)
        sign *= s
    elif (i, j) != (a, b):
        raise Free3Error("inner arguments must be the two non-lone variables")
    return sign, shape.index(outer_slot, inner_slot, lone)


# ---------------------------------------------------------------------------
# the extended symmetric group on {0, 1, 2, 3}
# ---------------------------------------------------------------------------

class GroupElement:
    """A permutation of the four legs {0, 1, 2, 3}.

    Composition is left-to-right: (a * b)(i) = b(a(i)), so that the right
    action on vectors satisfies (w . a) . b = w . (a * b).
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != [0, 1, 2, 3]:
            raise Free3Error(f"not a permutation of 0..3: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("GroupElement is immutable")

    @classmethod
    def sigma3(cls, images123):
        """Element of the inner symmetric group (fixes the output leg 0);
        images123 gives the images of legs 1, 2, 3."""
        return cls((0,) + tuple(images123))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(tuple(other.images[self.images[i]] for i in range(4)))

    def inverse(self) -> "GroupElement":
        inv = [0] * 4
        for i, j in enumerate(self.images):
            inv[j] = i
        return GroupElement(inv)

    def fixes_output(self) -> bool:
        return self.images[0] == 0

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"GroupElement{self.images}"


GAMMA3 = GroupElement((1, 2, 3, 0))        # the cycle (0 1 2 3)
TAU12 = GroupElement.sigma3((2, 1, 3))
TAU23 = GroupElement.sigma3((1, 3, 2))
TAU13 = GroupElement.sigma3((3, 2, 1))
CYC123 = GroupElement.sigma3((2, 3, 1))    # x -> y -> z -> x

SIGMA3 = tuple(GroupElement.sigma3((a + 1, b + 1, c + 1))
               for a, b, c in itertools.permutations(range(3)))

SIGMA3_PLUS = tuple(GroupElement(p) for p in itertools.permutations(range(4)))


def apply_perm_to_basis(shape: EShape, idx: int, g: GroupElement):
    """Right action of g on a canonical basis monomial: (sign, new_index).

    Relabels the four external legs of the two-vertex tree by i -> g(i),
    re-roots at the new leg 0, and folds the slot transpositions produced
    by vertex re-orientation and by canonical re-normalisation.
    """
    f, gg, l = shape.basis_triple(idx)
    a, b = (l + 1) % 3, (l + 2) % 3
    # external labels after relabelling (legs: output 0, leaves k+1)
    f_out = g(0)
    f_in2 = g(l + 1)
    g_in1 = g(a + 1)
    g_in2 = g(b + 1)
    sign = 1
    if f_out == 0:
        # no re-rooting; plain leaf relabelling
        inner = ("app", gg, g_in1 - 1, g_in2 - 1)
        s, i2 = normalize_monomial(shape, f, inner, ("var", f_in2 - 1))
        return s * sign, i2
    if f_in2 == 0:
        # root moves to the outer vertex's leaf flag: outer roles rotate
        # (a 3-cycle, no transposition), inner vertex keeps its roles
        inner = ("app", gg, g_in1 - 1, g_in2 - 1)
        # outer becomes f(leaf, subtree); normalisation flips it back
        s, i2 = normalize_monomial(shape, f, ("var", f_out - 1), inner)
        return s * sign, i2
    # root lands on the inner vertex, which becomes the outer one
    fs, s1 = shape.tau(f)
    sign *= s1
    inner = ("app", fs, f_out - 1, f_in2 - 1)
    if g_in1 == 0:
        gs, s2 = shape.tau(gg)
        sign *= s2
        s, i2 = normalize_monomial(shape, gs, inner, ("var", g_in2 - 1))
    else:
        # g_in2 == 0: roles rotate by a 3-cycle, no flip
        s, i2 = normalize_monomial(shape, gg, inner, ("var", g_in1 - 1))
    return s * sign, i2


class _Lambda:
    __slots__ = ()

    def __repr__(self):
        return "LAMBDA"


LAMBDA = _Lambda()   # the left involution, as an argument of EShape.action


def lambda_basis(shape: EShape, idx: int):
    """The left involution: flip every vertex label by the transposition."""
    f, g, l = shape.basis_triple(idx)
    f2, s1 = shape.tau(f)
    g2, s2 = shape.tau(g)
    return s1 * s2, shape.index(f2, g2, l)


# ---------------------------------------------------------------------------
# vector-level actions
# ---------------------------------------------------------------------------

def right_action(shape: EShape, vec, g: GroupElement):
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
    """Row-reduced subspace of the arity-3 component; the representation is
    canonical, so equality of subspaces is equality of data."""

    def __init__(self, shape: EShape, vectors=(), _reduced=None):
        self.shape = shape
        self.ambient = shape.basis_size
        if _reduced is not None:
            self.rows = _reduced[0]
            self.pivots = _reduced[1]
        else:
            self.rows, self.pivots = _rref(list(vectors), self.ambient)

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

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF of [[A A], [B 0]]; rows with zero left half carry
        the intersection in their right half."""
        _compat(self, other)
        n = self.ambient
        big = [list(r) + list(r) for r in self.rows]
        big += [list(r) + [SC0] * n for r in other.rows]
        rows, _ = _rref(big, 2 * n)
        inter = [r[n:] for r in rows if not any(r[:n])]
        return Subspace(self.shape, inter)

    def is_invariant(self, action) -> bool:
        apply = action.apply if isinstance(action, ActionMatrix) else action
        return all(self.contains(apply(r)) for r in self.rows)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _compat(a: Subspace, b: Subspace):
    if a.shape != b.shape:
        raise Free3Error("subspace shapes differ")


def _rref(vectors, width):
    """Incremental reduced echelon form: rows and their pivot columns."""
    rows: list = []
    pivots: list = []
    for v in vectors:
        if len(v) != width:
            raise Free3Error(f"vector length {len(v)} != ambient {width}")
        _rref_insert(rows, pivots, v, width)
    return tuple(tuple(r) for r in rows), tuple(pivots)


def _eliminate(vec: list, rows, pivots, width) -> list:
    """Clear vec (in place) at every pivot column of the echelon rows."""
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
    None when the vector was already in the span."""
    vec = _eliminate(list(vec), rows, pivots, width)
    piv = next((k for k in range(width) if vec[k]), None)
    if piv is None:
        return None
    inv = vec[piv].inverse()
    vec = [c * inv for c in vec]
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


def span_closure(shape: EShape, vectors, actions=()) -> Subspace:
    """Span of the vectors, closed under the given actions (matrices or
    callables vec -> vec): images are inserted until the span is stable."""
    width = shape.basis_size
    rows: list = []
    pivots: list = []
    for v in vectors:
        _rref_insert(rows, pivots, v, width)
    appliers = [a.apply if isinstance(a, ActionMatrix) else a for a in actions]
    changed = bool(rows)
    while changed:
        changed = False
        for r in [tuple(r) for r in rows]:
            for ap in appliers:
                if _rref_insert(rows, pivots, ap(r), width) is not None:
                    changed = True
    return Subspace(shape, (),
                    _reduced=(tuple(tuple(r) for r in rows), tuple(pivots)))


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
            lhs = self._tau_image(self.images[s])
            rhs = [(c if sign == 1 else -c, t) for c, t in self.images[s2]]
            if _collect(lhs, self.dst.dim) != _collect(rhs, self.dst.dim):
                return False
        return True

    def _tau_image(self, imgs):
        out = []
        for c, t in imgs:
            t2, sign = self.dst.tau(t)
            out.append((c if sign == 1 else -c, t2))
        return out

    def matrix_rank(self) -> int:
        vecs = []
        for s in range(self.src.dim):
            row = [SC0] * self.dst.dim
            for c, t in self.images[s]:
                row[t] = row[t] + c
            vecs.append(row)
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


def polarized_shape(shape: EShape, suffix=("_s", "_a")) -> EShape:
    """Replace each no-symmetry generator by a (comm, anti) pair."""
    gens = []
    for n, s in shape.gens:
        if s == "none":
            gens.append((n + suffix[0], "comm"))
            gens.append((n + suffix[1], "anti"))
        else:
            gens.append((n, s))
    return EShape(gens)


def polarize_map(shape: EShape, dst: EShape | None = None, pairing=None) -> SlotMap:
    """m -> (c + a)/sqrt(2), m~ -> (c - a)/sqrt(2); comm/anti slots pass through.

    pairing maps each no-symmetry generator name to its (comm, anti) pair of
    names in dst; defaults to the `polarized_shape` naming.
    """
    if dst is None:
        dst = polarized_shape(shape)
    if pairing is None:
        pairing = {n: (n + "_s", n + "_a") for n, s in shape.gens if s == "none"}
    images = {}
    for k, (gi, ver) in enumerate(shape.slots):
        name, sym = shape.gens[gi]
        if sym == "none":
            cn, an = pairing[name]
            sgn = SC1 if ver == 0 else -SC1
            images[k] = [(INV_SQRT2, dst.slot(cn)), (INV_SQRT2 * sgn, dst.slot(an))]
        else:
            images[k] = [(SC1, dst.slot(name))]
    return SlotMap(shape, dst, images)


def depolarize_map(shape: EShape, dst: EShape, pairing) -> SlotMap:
    """Inverse direction: (comm c, anti a) pairs assemble into one
    no-symmetry generator.  pairing maps target generator name ->
    (comm source name, anti source name); unpaired comm/anti source
    generators map to the target generator of the same name."""
    paired = {}
    for tgt, (cn, an) in pairing.items():
        paired[cn] = (tgt, 1)
        paired[an] = (tgt, -1)
    images = {}
    for k, (gi, ver) in enumerate(shape.slots):
        name, sym = shape.gens[gi]
        if name in paired:
            tgt, sgn = paired[name]
            m0 = dst.slot(tgt, 0)
            m1 = dst.slot(tgt, 1)
            images[k] = [(INV_SQRT2, m0), (INV_SQRT2 if sgn == 1 else -INV_SQRT2, m1)]
        else:
            images[k] = [(SC1, dst.slot(name, ver))]
    return SlotMap(shape, dst, images)


def gamma_plus_split(shape: EShape):
    """The bracket-parity splitting (Gamma_plus, Gamma_minus): spans of the
    monomials with an even / odd number of anti-symmetric vertices in the
    polarized picture, pulled back through depolarization."""
    pol = polarized_shape(shape)
    pairing = {n: (n + "_s", n + "_a") for n, s in shape.gens if s == "none"}
    back = depolarize_map(pol, shape, pairing) if pairing else None

    def parity(slot):
        gi, _ = pol.slots[slot]
        return 1 if pol.gens[gi][1] == "anti" else 0

    plus_vecs, minus_vecs = [], []
    for f in range(pol.dim):
        for g in range(pol.dim):
            for l in range(3):
                v = basis_vector(pol, pol.index(f, g, l))
                if back is not None:
                    v = back.apply(v)
                (plus_vecs if (parity(f) + parity(g)) % 2 == 0 else minus_vecs).append(v)
    return Subspace(shape, plus_vecs), Subspace(shape, minus_vecs)
