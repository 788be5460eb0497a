#!/usr/bin/env python3
"""Run the whole verification battery and print a one-line summary per block.

Covers the generator algebra, unitarity, both Yang-Baxter residuals, the
spectrum with its eigenstate fixtures, the ladder-operator findings, and the
geometric phases. Exit status 0 only if every gated block passes. The
package is imported from the ``src`` directory of the checkout this script
sits in.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from braidphase import berry  # noqa: E402
from braidphase.cli import (  # noqa: E402
    cmd_berry, cmd_entangle, cmd_spectrum, cmd_verify_algebra, cmd_ybe)


def block(name, report):
    # np.max, not max: Python's max drops a NaN that does not come first
    worst = np.max(list(report.residual_summary.values())) if report.residual_summary else 0.0
    print(f"{'PASS' if report.passed else 'FAIL'}  {name:<18} "
          f"(worst gated residual {worst:.3e})")
    return report.passed


def main() -> int:
    ok = True
    algebra = cmd_verify_algebra(tol=1e-10, phi_samples=17, seed=0)
    ok &= block("algebra", algebra)
    ok &= block("yang-baxter", cmd_ybe(tol=1e-10, samples=25, phi_samples=3, seed=0))
    ok &= block("entanglement", cmd_entangle(np.pi / 6, 0.4, "000", tol=1e-9))
    ok &= block("spectrum", cmd_spectrum(np.pi / 3, 0.2, 1.0, 1.0, tol=1e-10))
    ok &= block("berry analytic", cmd_berry(0.9, 4000, "analytic", "all", tol=1e-5))
    ok &= block("berry wilson", cmd_berry(0.9, 400, "wilson", "all", tol=1e-4))

    print("\nfindings (the ladder block of the algebra report; misreadings are not gated):")
    ladder = algebra.results["ladder"]
    res, misread = ladder["residuals"], ladder["misreadings"]
    print(f"  [I3, I+-] = +-3 I+- holds ({res['ladder_plus_triple']:.1e}); "
          f"the unit-normalized form misses by {misread['ladder_plus_unit']:.3f}")
    print(f"  I3^2 = (9/4) x (doublet-span projector) holds "
          f"({res['i3_squared_projector_identity']:.1e})")
    print(f"  rescaled ladders J+- = I+-/sqrt(3), J3 = I3/3 close su(2) "
          f"({max(res['rescaled_cartan'], res['rescaled_ladder_plus']):.1e})")
    minus = berry.berry_wilson(0.9, 400)["minus"]
    print(f"  each doublet carries equal geometric phases: minus level "
          f"{minus[0]:+.6f}, {minus[1]:+.6f} (closed form "
          f"{berry.closed_form_phase('minus', 0.9):+.6f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
