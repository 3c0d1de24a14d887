"""Survey seeded random presheaves: totalization vs nerve, integration maps.

For each seed this builds a random presheaf on a small cover, compares
the equalizer totalization against the nerve complex, runs the weight-
truncated model through its integration map, and verifies the section
splits it.  Prints one row per seed plus wall-clock totals.

    python3 scripts/descent_survey.py --count 25 --max-sets 4
"""

import argparse
import random
import time

from descentlab.complexes import betti_numbers, is_quasi_iso
from descentlab.fixtures import random_presheaf
from descentlab.linalg import SparseMatrix
from descentlab.presheaf import tot, tw, tw_to_tot, whitney_section


def survey_one(args, seed: int):
    """One seed's row; args is the parsed command line (max_sets, max_dim,
    width)."""
    rng = random.Random(seed)
    n_sets = rng.randint(2, args.max_sets)
    F, expected = random_presheaf(rng, n_sets, max_dim=args.max_dim,
                                  width=args.width)
    T = tot(F)
    C = T.cech
    iso = T.to_cech()
    cech_betti = {n: b for n, b in betti_numbers(C.cx).items() if b}
    expected = {n: b for n, b in expected.items() if b}
    assert is_quasi_iso(iso).ok, f"seed {seed}: totalization not iso"
    tot_betti = {n: b for n, b in betti_numbers(T.cx).items() if b}
    assert tot_betti == cech_betti

    W = tw(F, n_sets)
    integ = tw_to_tot(W, T)
    cert = is_quasi_iso(integ)
    assert cert.ok, f"seed {seed}: integration map fails, {cert.to_json()}"
    sect = whitney_section(T, W)
    for n in T.cx.degrees():
        comp = integ.mat(n) @ sect.mat(n)
        assert (comp - SparseMatrix.identity(comp.nrows)).is_zero(), \
            f"seed {seed}: section not split in degree {n}"
    return n_sets, cech_betti, expected


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--max-sets", type=int, default=4)
    ap.add_argument("--max-dim", type=int, default=4)
    ap.add_argument("--width", type=int, default=4)
    ap.add_argument("--base-seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    print(f"{'seed':>4}  {'sets':>4}  betti")
    for k in range(args.count):
        seed = args.base_seed + k
        n_sets, cech_betti, expected = survey_one(args, seed)
        tag = "" if cech_betti == expected else "  (UNEXPECTED)"
        row = ", ".join(f"b{n}={b}" for n, b in sorted(cech_betti.items()))
        print(f"{seed:>4}  {n_sets:>4}  {row or 'trivial'}{tag}")
        if cech_betti != expected:
            raise SystemExit(f"seed {seed}: betti mismatch vs model")
    print(f"\n{args.count} presheaves, all comparisons exact, "
          f"{time.monotonic() - t0:.2f}s")


if __name__ == "__main__":
    main()
