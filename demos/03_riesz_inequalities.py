"""The Riesz-mean inequality zoo on box spectra.

Every margin printed here is a theorem (nonnegative on true spectra); the
two-term refinements hold beyond an onset that the scan locates empirically.

Run:  python demos/03_riesz_inequalities.py
"""

from polyaspec import (
    berezin_margin,
    box_meta,
    box_spectrum,
    kroger_check,
    laptev_neumann_margin,
    li_yau_checks,
    riesz_mean,
    sphere2_spectrum,
    two_term_riesz_scan,
)

print("=== Riesz means: smoothed counting functions ===")
sph = sphere2_spectrum(10)
print("2-sphere, gamma = 1, lambda = 6:", riesz_mean(sph, 1.0, 6.0))
print("gamma = 0 recovers the count:", riesz_mean(sph, 0.0, 6.0))

print()
print("=== one-term bounds (gamma >= 1): Berezin above, Laptev below ===")
sq_d = box_spectrum([1, 1], "dirichlet", 200.0)
sq_n = box_spectrum([1, 1], "neumann", 200.0)
md, mn = box_meta([1, 1], "dirichlet"), box_meta([1, 1], "neumann")
for lam in (25.0, 100.0, 190.0):
    print(f"  lambda = {lam:6.1f}: Berezin margin {berezin_margin(sq_d, md, 1.0, lam):10.4f}"
          f"   Laptev margin {laptev_neumann_margin(sq_n, mn, 1.0, lam):10.4f}")

print()
print("=== eigenvalue forms: Li-Yau below, Kroger above ===")
sq_d20 = box_spectrum([1, 1], "dirichlet", 2000.0)
sq_n20 = box_spectrum([1, 1], "neumann", 2000.0)
for k in (1, 5, 20):
    sum_margin, eigen_margin = li_yau_checks(sq_d20, md, k)
    print(f"  k = {k:2d}: Li-Yau sum margin {sum_margin:9.4f}, "
          f"eigenvalue margin {eigen_margin:9.4f}, "
          f"Kroger margin {kroger_check(sq_n20, mn, k):9.4f}")

print()
print("=== two-term refinement: margins at jumps and the empirical onset ===")
sq_d = box_spectrum([1, 1], "dirichlet", 1.1e4)
scan = two_term_riesz_scan(sq_d, md, 1.0, 1e4)
print(f"unit square, Dirichlet side, gamma = 1, {len(scan.points)} jump points scanned")
print(f"  empirical onset lambda* = {scan.lambda_star:.4f}")
print(f"  worst margin {scan.worst_margin:.4f} at lambda = {scan.worst_lambda:.4f}")
print("  (the onset is a scan artifact, valid only for the scanned window;")
print("   the refined inequality is asymptotic and carries no explicit onset)")

sq_n = box_spectrum([1, 2], "neumann", 1.1e4)
scan = two_term_riesz_scan(sq_n, box_meta([1, 2], "neumann"), 1.0, 1e4)
print(f"box [1, 2], Neumann side: lambda* = {scan.lambda_star:.4f}, "
      f"final margin {scan.points[-1][3]:.4f}")
