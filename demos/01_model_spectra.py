"""Model spectra: generators, products, exact values, serialization.

Run:  python demos/01_model_spectra.py
"""

import io
import math

from polyaspec import (
    box_spectrum,
    interval_spectrum,
    product_spectrum,
    sphere2_spectrum,
    stream_from_csv,
    stream_to_csv,
    triangle_neumann_spectrum,
)

print("=== interval (0, 1), Dirichlet, eigenvalues below 50 ===")
s = interval_spectrum(1, "dirichlet", 50)
print("values:", list(s.values), " (pi^2 and 4 pi^2)")

print()
print("=== interval (0, pi/24): the symbolic length keeps the spectrum exact ===")
s = interval_spectrum("pi/24", "dirichlet", 1e4)
print("values:", list(s.values))
print("exact rationals:", s.exact_nums.tolist(), "over", s.exact_den)

print()
print("=== side-10 square, Neumann: multiplicities aggregate lattice points ===")
s = box_spectrum([10, 10], "neumann", math.pi ** 2 / 100 * 5 + 1e-9)
for v, m in s.entries():
    print(f"  value {v:.6f}  multiplicity {m}")

print()
print("=== round 2-sphere: k(k+1) with multiplicity 2k+1 ===")
s = sphere2_spectrum(43)
print("entries:", list(s.entries()))
print("count below 43:", s.count(43.0), " (= 7^2)")

print()
print("=== unit equilateral triangle, Neumann: one value per ordered pair m, n >= 0 ===")
t = triangle_neumann_spectrum(200.0)
print("counting function at 1:", t.count(1.0), "(zero mode only)")
lam = 16 * math.pi ** 2 / 9
print(f"first nonzero eigenvalue 16 pi^2 / 9 = {lam:.6f}:")
print("  count just above it:", t.count(lam + 1e-9),
      "(the zero mode and the pairs (1, 0), (0, 1))")
print("stream head:", list(t.entries())[:4])

print()
print("=== products: pairwise sums with multiplied multiplicities ===")
iv = interval_spectrum("pi/24", "dirichlet", 600)
sph = sphere2_spectrum(600)
prod = product_spectrum(iv, sph, 600)
print("(0, pi/24) x S^2 below 600:", list(prod.entries()))
print("exact values:", prod.exact_nums.tolist(), "over", prod.exact_den)

print()
print("=== CSV round trip ===")
buf = io.StringIO()
stream_to_csv(prod, buf)
print(buf.getvalue().strip())
buf.seek(0)
back = stream_from_csv(buf, cutoff=600.0)
print("counts agree after round trip:", all(
    back.count(x) == prod.count(x) for x in (100.0, 577.0, 590.0, 599.9)))
