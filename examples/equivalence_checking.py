#!/usr/bin/env python3
"""Combinational equivalence checking with the merge-phase engines.

The paper's merge phase is "essentially a combinational equivalence
checking problem"; this example uses the same machinery directly to check
two structurally different implementations of one function — a ripple-
carry carry-out against a carry-lookahead-style formulation — and to catch
an injected bug.

Run:  python examples/equivalence_checking.py
"""

from repro.aig.analysis import cone_size
from repro.aig.graph import Aig
from repro.aig.ops import and_all, or_, or_all, xor
from repro.sweep import prove_edges_equivalent


def ripple_carry_out(aig: Aig, a: list[int], b: list[int]) -> int:
    carry = 0
    for x, y in zip(a, b):
        generate = aig.and_(x, y)
        propagate = xor(aig, x, y)
        carry = or_(aig, generate, aig.and_(propagate, carry))
    return carry


def lookahead_carry_out(aig: Aig, a: list[int], b: list[int]) -> int:
    """c_out = OR_i (g_i AND AND_{j>i} p_j)  — flattened lookahead form."""
    generate = [aig.and_(x, y) for x, y in zip(a, b)]
    propagate = [xor(aig, x, y) for x, y in zip(a, b)]
    terms = []
    for i in range(len(a)):
        chain = and_all(aig, propagate[i + 1:])
        terms.append(aig.and_(generate[i], chain))
    return or_all(aig, terms)


def main() -> None:
    width = 8
    aig = Aig()
    a = aig.add_inputs(width, prefix="a")
    b = aig.add_inputs(width, prefix="b")

    ripple = ripple_carry_out(aig, a, b)
    lookahead = lookahead_carry_out(aig, a, b)
    print(f"ripple cone: {cone_size(aig, ripple)} ANDs, "
          f"lookahead cone: {cone_size(aig, lookahead)} ANDs")

    verdict, counterexample = prove_edges_equivalent(aig, ripple, lookahead)
    print(f"equivalent: {verdict}")
    assert verdict is True

    # Inject a bug: drop the propagate term of bit 3.
    def buggy_lookahead() -> int:
        generate = [aig.and_(x, y) for x, y in zip(a, b)]
        propagate = [xor(aig, x, y) for x, y in zip(a, b)]
        propagate[3] = generate[3]          # the "typo"
        terms = []
        for i in range(width):
            chain = and_all(aig, propagate[i + 1:])
            terms.append(aig.and_(generate[i], chain))
        return or_all(aig, terms)

    verdict, counterexample = prove_edges_equivalent(
        aig, ripple, buggy_lookahead()
    )
    print(f"\nbuggy implementation equivalent: {verdict}")
    assert verdict is False
    a_val = sum(counterexample.get(e >> 1, False) << i for i, e in enumerate(a))
    b_val = sum(counterexample.get(e >> 1, False) << i for i, e in enumerate(b))
    print(f"distinguishing input: a={a_val}, b={b_val} "
          f"(a+b carries out: {a_val + b_val >= 2**width})")


if __name__ == "__main__":
    main()
