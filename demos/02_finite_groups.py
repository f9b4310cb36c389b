"""Finite rotation groups built from unit multiplications.

W+(D4) comes from admissible pairs (a, b) acting by x -> a x b, Aut(O) =
G2(2) from closures of Brandt conjugations, and |W+(E8)| by orbit-stabilizer
rather than enumeration.  Run with:  python3 demos/02_finite_groups.py
"""

import random
import time

from octavia.rings import OCTAVIAN, units
from octavia.rootsys import (
    d4_even_count,
    e8_decompose,
    e8_element,
    generate_G2_2,
    imaginary_units,
    w_e8_order,
)


def main():
    print(f"|W+(D4)| = {d4_even_count()}  (expected 96)")

    t0 = time.perf_counter()
    g2 = generate_G2_2()
    print(f"|G2(2)| = |Aut(O)| = {len(g2)}  (expected 12096, "
          f"{time.perf_counter() - t0:.1f}s by matrix closure)")

    order = w_e8_order()
    print(f"|W+(E8)| = {order} = 240 x 120 x 12096")

    # every even E8 isometry is x -> (f (e phi(x) e) f) b with imaginary
    # units e, f, a unit b and an automorphism phi; recover the pieces
    rng = random.Random(7)
    imag = imaginary_units()
    m = e8_element(rng.choice(imag), rng.choice(imag),
                   rng.choice(units(OCTAVIAN)), rng.choice(g2))
    e, f, b, phi = e8_decompose(m)
    rebuilt = e8_element(e, f, b, phi)
    print("sample W+(E8) element decomposed and rebuilt:",
          "ok" if rebuilt.rows2 == m.rows2 else "MISMATCH")


if __name__ == "__main__":
    main()
