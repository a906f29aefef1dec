"""Conjectured classification of primitive Eulerian tuples.

Depth-1 is classical: the value of (n) is Eulerian exactly when
(q-1) | n.  In higher depth the conjectural list consists of a
canonical doubly-indexed family, an extra depth-2 family, and a handful
of exceptional tuples (three sporadic pairs plus two recursive
sequences when q = 2).  The list is CONJECTURAL; `compare_sweep` only
reports agreement with computed verdicts, it never asserts the list as
ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fields import field_for_q


@dataclass(frozen=True)
class FamilyTuple:
    s: tuple
    tag: str

    @property
    def weight(self) -> int:
        return sum(self.s)

    @property
    def depth(self) -> int:
        return len(self.s)


def eu_base(q: int, r: int) -> tuple:
    """Eu_1 = (q-1); Eu_{r+1} = (q-1, q·Eu_r)."""
    if r < 1:
        raise ValueError("depth must be >= 1")
    out = (q - 1,)
    for _ in range(r - 1):
        out = (q - 1,) + tuple(q * x for x in out)
    return out


def eu_canonical(q: int, r: int, ell: int) -> tuple:
    """Eu_r(ℓ) = (q^ℓ - 1, q^ℓ·Eu_{r-1}); Eu_1(ℓ) = (q^ℓ - 1)."""
    if r < 1 or ell < 1:
        raise ValueError("need r >= 1 and ℓ >= 1")
    if r == 1:
        return (q ** ell - 1,)
    return (q ** ell - 1,) + tuple(q ** ell * x for x in eu_base(q, r - 1))


def extra_family(q: int, ell: int) -> tuple:
    """The depth-2 pair (q^ℓ(q-1), q^{ℓ+2} - 1 - q^ℓ(q-1)), weight
    q^{ℓ+2} - 1."""
    if ell < 1:
        raise ValueError("need ℓ >= 1")
    a = q ** ell * (q - 1)
    return (a, q ** (ell + 2) - 1 - a)


def predicted_eulerian(q: int, wmax: int, rmax: int):
    """All conjectured primitive Eulerian tuples of depth >= 2 with
    weight <= wmax and depth <= rmax, as a set of FamilyTuple.

    For q = 2 the sporadic pairs (1,1), (1,3), (3,5) and the recursive
    rule "(1, s) with s primitive Eulerian of depth r-1 and total
    weight 2^r or 2^{r-1}" are included; the two explicit sequences
    (1,1,2,...,2^{r-2}) and (1,3,4,...,2^{r-1}) arise from that rule.
    """
    out = {}

    def add(s, tag):
        s = tuple(s)
        if sum(s) <= wmax and 2 <= len(s) <= rmax and s not in out:
            out[s] = FamilyTuple(s, tag)

    for r in range(2, rmax + 1):
        ell = 1
        while q ** (r + ell - 1) - 1 <= wmax:
            add(eu_canonical(q, r, ell), f"canonical(r={r},ℓ={ell})")
            ell += 1
    ell = 1
    while q ** (ell + 2) - 1 <= wmax:
        add(extra_family(q, ell), f"extra(ℓ={ell})")
        ell += 1
    add((q - 1, (q - 1) ** 2), "exceptional-(q-1,(q-1)^2)")

    if q == 2:
        add((1, 1), "exceptional-q2")
        add((1, 3), "exceptional-q2")
        add((3, 5), "exceptional-q2")
        # recursive rule for depth r > 2, built up by depth from the
        # predicted depth-(r-1) tuples (depth 2 has exactly the three
        # sporadic exceptionals handled above)
        for r in range(3, rmax + 1):
            level = sorted(f.s for f in out.values() if len(f.s) == r - 1)
            for s in level:
                total = 1 + sum(s)
                if total in (2 ** r, 2 ** (r - 1)):
                    tag = (
                        "exceptional-weight-2^r"
                        if total == 2 ** r
                        else "exceptional-weight-2^(r-1)"
                    )
                    add((1,) + s, tag)
    return set(out.values())


def is_primitive(q: int, s) -> bool:
    p = field_for_q(q).p
    return any(x % p != 0 for x in s)


@dataclass
class SweepReport:
    matches: list
    false_positives: list  # computed Eulerian, not predicted
    false_negatives: list  # predicted, computed non-Eulerian
    missing: list  # predicted but absent from the computed map

    @property
    def clean(self) -> bool:
        return not (self.false_positives or self.false_negatives or self.missing)


def compare_sweep(q: int, predicted, computed) -> SweepReport:
    """Compare the conjectural list against computed verdicts.

    `predicted` is a set of FamilyTuple (or plain tuples); `computed`
    maps tuples to booleans or Verdict-like objects with an `eulerian`
    attribute.  Only primitive tuples of depth >= 2 in the computed map
    participate.
    """
    pred = {f.s if isinstance(f, FamilyTuple) else tuple(f) for f in predicted}

    def truth(v):
        return v.eulerian if hasattr(v, "eulerian") else bool(v)

    eulerian = {
        tuple(s)
        for s, v in computed.items()
        if truth(v) and len(s) >= 2 and is_primitive(q, s)
    }
    covered = {
        tuple(s)
        for s in computed
        if len(s) >= 2 and is_primitive(q, s)
    }
    return SweepReport(
        matches=sorted(eulerian & pred),
        false_positives=sorted(eulerian - pred),
        false_negatives=sorted((pred & covered) - eulerian),
        missing=sorted(pred - covered),
    )
