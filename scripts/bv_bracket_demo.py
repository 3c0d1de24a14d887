"""Exercise the odd Laplacian on polyvector fields and show a worked bracket.

Runs the axiom battery (the operator squares to zero, the derived bracket
is graded antisymmetric and satisfies the Leibniz rule, the operator is a
derivation of its bracket, optionally Jacobi) over all monomial instances
up to the degree bound.  Then it prints one derived-bracket computation
next to the classical Schouten formula; only this worked example compares
the two.

    python3 scripts/bv_bracket_demo.py --max-degree 3
"""

import argparse
import time
from fractions import Fraction

from descentlab.polyvec import (Polyvector, bracket_from_delta, bv_axiom_check,
                                bv_delta, format_polyvector, schouten_oracle)


def worked_example():
    # the vector fields x1^2 d/dx2 and x2 d/dx1, written with odd xi_i
    a = Polyvector(2, {((2, 0), (1,)): Fraction(1)})
    b = Polyvector(2, {((0, 1), (0,)): Fraction(1)})
    br = bracket_from_delta(bv_delta)(a, b)
    print("a          =", format_polyvector(a))
    print("b          =", format_polyvector(b))
    print("delta(ab)  =", format_polyvector(bv_delta(a * b)))
    print("[a, b]     =", format_polyvector(br))
    print("closed form=", format_polyvector(schouten_oracle(a, b)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nvars", type=int, default=2)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--skip-jacobi", action="store_true")
    args = ap.parse_args()

    t0 = time.monotonic()
    count = bv_axiom_check(nvars=args.nvars, max_degree=args.max_degree,
                           jacobi=not args.skip_jacobi)
    dt = time.monotonic() - t0
    print(f"axiom instances checked: {count}  ({dt:.2f}s)\n")
    worked_example()


if __name__ == "__main__":
    main()
