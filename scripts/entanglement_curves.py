#!/usr/bin/env python3
"""Generate the entanglement-vs-theta curves and print the landmark rows.

Writes the sweep CSV (theta, measured and closed-form tangle / pair
concurrence / one-vs-rest concurrence squared, max residual) and prints the
three landmark points: the GHZ point theta = pi/6, the separable point
theta = pi/2, and the W-type point theta = 0. The package is imported from
the ``src`` directory of the checkout this script sits in.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from braidphase import entanglement, states  # noqa: E402
from braidphase.cli import cmd_sweep  # noqa: E402
from braidphase.yangbaxter import RParams  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="entanglement_curves.csv")
    parser.add_argument("--steps", type=int, default=121)
    parser.add_argument("--phi", type=float, default=0.0)
    args = parser.parse_args()

    try:
        report, csv_text = cmd_sweep(0.0, np.pi, args.steps, args.phi, tol=1e-9)
    except ValueError as exc:  # an argument cmd_sweep refuses: a usage error
        parser.error(str(exc))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)
    print(f"wrote {args.steps} rows to {args.out} "
          f"(max closed-form residual "
          f"{report.residual_summary['closed_form_match_max']:.3e})")

    print("\nlandmarks:")
    for name, theta in (("GHZ point      (theta=pi/6)", np.pi / 6),
                        ("separable point (theta=pi/2)", np.pi / 2),
                        ("W-type point    (theta=0)   ", 0.0)):
        out = states.apply_r(RParams(theta, args.phi), states.basis_state("000"))
        rep = entanglement.full_report(out)
        print(f"  {name}: tau={rep.tau_abc:.6f}  c_pair={rep.c_ab:.6f}  "
              f"c2_one_rest={rep.c2_a_bc:.6f}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
