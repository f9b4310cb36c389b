"""Modular group action on the upper half plane models.

Words in inversion, translations and unit rotations act isometrically on
the 2-, 5- and 9-dimensional hyperbolic spaces attached to Z, the Hurwitz
quaternions and the octavians.  Run with:  python3 demos/04_hyperbolic_action.py
"""

import random

import numpy as np

from octavia.algebra import AlgElem, to_text
from octavia.hyperweyl import apply_word, coset_reps, delta, random_word
from octavia.rings import HURWITZ, OCTAVIAN, Z
from octavia.uhp import UhpPoint, act_word, distance, periodic_orbit_length


def main():
    rng = random.Random(3)
    nprng = np.random.default_rng(3)
    for ring in (Z, HURWITZ, OCTAVIAN):
        w = random_word(ring, rng, 6, 3)
        z1 = UhpPoint(nprng.uniform(-1, 1, ring.dim), 1.3)
        z2 = UhpPoint(nprng.uniform(-1, 1, ring.dim), 0.7)
        d0 = distance(z1, z2)
        d1 = distance(act_word(w, z1), act_word(w, z2))
        print(f"{ring.name:8s} word of length 6: |d(wz1, wz2) - d(z1, z2)| ="
              f" {abs(d1 - d0):.2e}")

    # the null vector delta stays null under the whole group
    from octavia.algebra import norm_sq
    w = random_word(HURWITZ, rng, 6, 3)
    img = apply_word(w, delta(4))
    print("delta stays null under any word:",
          img.x_plus * img.x_minus == norm_sq(img.x))

    print("\ncoset representatives (c, d) with |c|^2, |d|^2 <= 1, mod units:")
    for c2, d2 in coset_reps(Z, 1).tolist():  # rows of doubled coordinates
        c, d = AlgElem.from_coords2(1, [c2]), AlgElem.from_coords2(1, [d2])
        print(f"  ({to_text(c)}, {to_text(d)})")

    # closed geodesic length of a hyperbolic integer matrix
    o = np.array([1.0])
    M = ((2 * o, o), (o, o))
    print(f"\nlength of the [[2,1],[1,1]] orbit: {periodic_orbit_length(M):.13f}")
    print("            2 arcosh(3/2)         :", 2 * float(np.arccosh(1.5)))


if __name__ == "__main__":
    main()
