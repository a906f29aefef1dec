"""Reference answers the benchmark checks every result against.

None of these answers is computed by the decision engine at run time;
each comes with the source it was taken from:

* depth one: the classical rule, ζ(n) is Eulerian iff (q-1) | n
  (every n when q = 2);
* p-scaling: s and p·s have the same verdict, so a tuple whose entries
  are all divisible by p takes the verdict of s/p;
* q = 3, weight <= 26, depth 2-3: the hand list of acceptance
  criterion 4 (tests/test_acceptance.py);
* q = 2, weight <= 8 and q = 3, weight 80: the conjectural family list
  of `ffmzv.families.predicted_eulerian`, copied here literally so a
  later edit of that module cannot move the reference.  The list is a
  conjecture: a disagreement is reported per tuple as a failure, and
  either side may be the one at fault;
* zeta-like outcomes at q = 3, bound 11: (1, 2) is zeta-like per the
  README; the other twelve were recorded from the engine at the commit
  that introduced this benchmark and are labelled as such.
"""
from __future__ import annotations

HAND_LIST = "acceptance-4 hand list (tests/test_acceptance.py)"
PREDICTED = "families.predicted_eulerian, conjectural"
DEPTH_ONE = "depth-one rule: Eulerian iff (q-1) | n"
README = "README library example"
RECORDED = "recorded from the engine when this benchmark was added"

# primitive Eulerian tuples of depth >= 2, by (q, covered weights)
EULERIAN_LISTS = (
    (3, range(1, 27), HAND_LIST,
     {(2, 4), (2, 6), (8, 18), (6, 20), (2, 6, 18)}),
    # predicted_eulerian(2, 8, 3)
    (2, range(1, 9), PREDICTED,
     {(1, 1), (1, 1, 2), (1, 2), (1, 2, 4), (1, 2, 5), (1, 3), (1, 3, 4),
      (2, 5), (3, 4), (3, 5)}),
    # the weight-80 members of predicted_eulerian(3, 80, 3)
    (3, range(80, 81), PREDICTED,
     {(18, 62), (26, 54), (8, 18, 54)}),
)

ZETALIKE_BOUND = 11
# q = 3, bound ZETALIKE_BOUND: composition -> (outcome, source)
ZETALIKE_Q3 = {
    (1, 2): ("zeta-like", README),
    (1, 4): ("zeta-like", RECORDED),
    **{
        s: ("none-up-to-bound", RECORDED)
        for s in [(2, 1), (1, 1, 1), (2, 3), (3, 2), (4, 1), (1, 1, 3),
                  (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)]
    },
}


def _char(q: int) -> int:
    p = 2
    while q % p:
        p += 1
    return p


def eulerian(q: int, s: tuple):
    """(verdict, source) for the multizeta value of s over F_q.

    Raises KeyError for a tuple no source covers."""
    s = tuple(s)
    if len(s) == 1:
        return s[0] % (q - 1) == 0, DEPTH_ONE
    p = _char(q)
    if all(x % p == 0 for x in s):
        verdict, source = eulerian(q, tuple(x // p for x in s))
        return verdict, f"p-scaling of {source}"
    for lq, weights, source, tuples in EULERIAN_LISTS:
        if lq == q and sum(s) in weights:
            return s in tuples, source
    raise KeyError(f"no reference answer for q={q}, s={s}")


def zeta_like(s: tuple):
    """(outcome, source) of is_zeta_like at q = 3, bound ZETALIKE_BOUND."""
    return ZETALIKE_Q3[tuple(s)]
