"""Polya's inequalities for the thin product (0, a) x S^2.

At a = pi/24 the eigenvalues are the integers 576 l^2 + k(k+1) and the
Weyl comparison rationalizes to value^3 vs 1296 k^2, so the verification
runs in pure integer arithmetic.  At large a the inequalities break at the
first eigenvalue, witnessed by pi^2 / a^2.

Run:  python demos/05_thin_product_polya.py
"""

import math
import time

from polyaspec import (
    interval_meta,
    interval_spectrum,
    product_meta,
    product_spectrum,
    sphere2_meta,
    sphere2_spectrum,
    verify_dirichlet,
    verify_exact_power,
    verify_neumann,
)
from polyaspec.reproduce import rationalized_polya_constant


def thin_sphere(a, bc, cutoff):
    stream = product_spectrum(
        interval_spectrum(a, bc, cutoff), sphere2_spectrum(cutoff), cutoff)
    return stream, product_meta(interval_meta(a, bc), sphere2_meta())


print("=== rationalizing the Polya constant at a = pi/24 ===")
meta = product_meta(interval_meta("pi/24", "dirichlet"), sphere2_meta())
constant = rationalized_polya_constant(3, meta.exact_volume)
print(f"volume = pi^2/6, dimension 3  =>  (4 pi^2)^3 / (omega_3 |Omega|)^2 = {constant}")

print()
print("=== exact verification of the first 100000 eigenvalues ===")
t0 = time.perf_counter()
cutoff = 26500.0
stream_d, _ = thin_sphere("pi/24", "dirichlet", cutoff)
rep = verify_exact_power(stream_d, meta, 100_000, "dirichlet")
print(f"Dirichlet: {rep.verdict}, {rep.checked} eigenvalues, "
      f"worst cubed margin {rep.worst_margin:.4f} at k = {int(rep.worst_location)}")
stream_n, meta_n = thin_sphere("pi/24", "neumann", cutoff)
rep = verify_exact_power(stream_n, meta_n, 100_000, "neumann")
print(f"Neumann:   {rep.verdict}, {rep.checked} eigenvalues, "
      f"worst cubed margin {rep.worst_margin:.4f} at k = {int(rep.worst_location)}")
print(f"({time.perf_counter() - t0:.2f}s, no floating point in any comparison)")

print()
print("=== the float path agrees ===")
rep = verify_dirichlet(stream_d, meta, 100_000)
print(f"float Dirichlet verdict: {rep.verdict}, worst relative margin {rep.worst_margin:.6f}")

print()
print("=== large a: both inequalities fail at k = 1 ===")
a = math.pi
stream, m = thin_sphere(a, "dirichlet", 5.0)
rep = verify_dirichlet(stream, m, 1)
k, lhs, rhs = rep.failures[0]
print(f"a = pi > sqrt(2/3) pi: lambda_1 = pi^2/a^2 = {lhs} < {rhs:.6f}  ({rep.verdict})")

a = 0.99 * math.sqrt(2 / 3) * math.pi
stream, m = thin_sphere(a, "neumann", 5.0)
rep = verify_neumann(stream, m, 1)
k, lhs, rhs = rep.failures[0]
print(f"a = 0.99 sqrt(2/3) pi:  mu_1 = pi^2/a^2 = {lhs:.6f} > {rhs:.6f}  ({rep.verdict})")
