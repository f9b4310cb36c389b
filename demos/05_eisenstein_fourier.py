"""Eisenstein series, their zeta normalization and Fourier modes.

Truncated lattice sums over coprime pairs give numerically invariant
eigenfunctions of the hyperbolic Laplacian; their Fourier modes show the
two power laws v^s, v^(n-s) in the zero mode and Bessel-K decay elsewhere.
Run with:  python3 demos/05_eisenstein_fourier.py  (a few seconds)
"""

import numpy as np

from octavia.autoforms import (
    SeriesParams,
    bessel_k,
    eisenstein_truncated,
    fourier_coefficient,
    green_function,
    zeta_partial,
    zeta_relation_check,
)
from octavia.hyperweyl import GroupWord, Inv, Rot
from octavia.rings import HURWITZ, units
from octavia.uhp import UhpPoint, act_word


def main():
    ring, s = HURWITZ, 5.0
    z = UhpPoint([0.0] * 4, 1.0)
    val = eisenstein_truncated(SeriesParams(ring, s, 4, z))
    w = GroupWord(ring, (Inv(), Rot(units(ring)[3])))
    val_w = eisenstein_truncated(SeriesParams(ring, s, 4, act_word(w, z)))
    print(f"E(z, 5) at z = i: {val.real:.10f}")
    print(f"same after inversion + rotation: {val_w.real:.10f}")

    print("\nzeta relation E = 2 zeta_H(s) E^coprime, defect by radius:")
    for radius in (4, 9, 16):
        res = zeta_relation_check(ring, z, s, radius)
        print(f"  R = {radius:2d}: {res:.3e}")
    print("partial zeta_H(5) over 10000 shells:",
          f"{zeta_partial(ring, 5.0, 10000).real:.10f}")

    print("\nzero mode at heights v = 6 and 9 (leading power is v^s):")
    a = [fourier_coefficient([0.0] * 4, v, s, 9, ring, grid=2) for v in (6.0, 9.0)]
    fit = np.log(a[1].coefficient.real / a[0].coefficient.real) / np.log(9 / 6)
    print(f"  fitted exponent: {fit:.6f}  (s = {s})")

    mu = [1.0, 1.0, 0.0, 0.0]
    d = fourier_coefficient(mu, 0.4, 4.0, 4, ring, grid=4)
    print(f"\nmu = (1,1,0,0) mode at v = 0.4: {d.coefficient.real:.6e}")
    print("   K_{s - n/2}(2 pi |mu| v) scale:",
          f"{float(bessel_k(2.0, 2 * np.pi * np.sqrt(2) * 0.4).real):.6e}")

    print("\nresolvent Green function g(lambda) on the 5-dim model:")
    for lam in (1.0, 0.1, 0.01):
        print(f"  lambda = {lam:5g}: {green_function(lam, 4.0, 4):.6f}")


if __name__ == "__main__":
    main()
