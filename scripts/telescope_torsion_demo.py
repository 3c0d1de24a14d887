"""Torsion of multiplication telescopes over the truncated Novikov ring.

For each (denominator, exponent) setting, assembles the telescope of
repeated T-multiplication, prints its homology table over the truncated
ring, and confirms the torsion is pure: the comparison from the
telescope shortened by the torsion order induces zero on degree-0
homology.

    python3 scripts/telescope_torsion_demo.py --length 5
"""

import argparse
from dataclasses import dataclass
from fractions import Fraction

from descentlab.complexes import (homology, novikov_induced_rank, telescope,
                                  telescope_comparison)
from descentlab.fixtures import novikov_telescope_terms
from descentlab.scalars import NovikovRing


@dataclass
class TelescopeJob:
    den: int
    exponent: Fraction
    length: int


def run_job(job: TelescopeJob):
    terms, maps = novikov_telescope_terms(job.den, job.exponent, job.length)
    m = terms[0].ring.truncation_order
    # past the truncation order the comparison's target is the full
    # telescope, so the table is read off it
    if job.length > m:
        _, tel, comp = telescope_comparison(terms, maps, job.length - m,
                                            job.length)
    else:
        tel = telescope(terms, maps)
    report = homology(tel.cx)
    print(f"den={job.den} E={job.exponent} length={job.length} "
          f"(truncation order {m})")
    for line in report.text().splitlines():
        print("   ", line)

    if job.length <= m:
        print("    (telescope too short to witness purity)\n")
        return
    induced_rank = novikov_induced_rank(comp, 0)
    verdict = "pure" if induced_rank == 0 else "NOT PURE"
    print(f"    comparison from length {job.length - m}: "
          f"induced rank {induced_rank} on H^0 -> torsion {verdict}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=int, default=4)
    args = ap.parse_args()

    for den, exponent in [(1, Fraction(3)), (2, Fraction(3, 2)),
                          (3, Fraction(2, 3))]:
        m = NovikovRing(den, exponent).truncation_order
        length = max(args.length, m + 1)
        run_job(TelescopeJob(den, exponent, length))


if __name__ == "__main__":
    main()
