#!/usr/bin/env python3
"""Minimizing the non-adiabatic energy with launching/stopping caps.

Riding the moving potential minimum (omega = omega0/b^2 along a linear b)
costs the least energy excess, but it starts and ends with nonzero slope.
Delta kicks cannot fix that here: the launch kick would need omega^2 < 0.
Cubic caps can, at the price of a small overhead that an optimizer keeps
close to the bound, subject to keeping omega real everywhere.
"""
import numpy as np

from staexpand import TrapSpec, energies, optimize, protocols

spec = TrapSpec.from_gamma(10.0)

print("cap-duration optimization at gamma = 10 (energies in hbar*omega0)")
print("    t_f     avg_Ena     bound    ratio   caps (tau_L, tau_S)")
for t_f in (250.0, 400.0, 600.0):
    res = optimize.optimize_caps(spec, t_f)
    bound = energies.na_lower_bound(spec, t_f)
    print(f"  {t_f:6.0f}  {res.objective:.4e}  {bound:.2e}  {res.objective/bound:6.3f}"
          f"   ({res.params[0]:.2f}, {res.params[1]:.2f})")

print("\nthe bound is not reached: the omega >= 0 constraint keeps the caps")
print("finite, and below t_f ~ 223/omega0 no real-frequency cap pair exists")

print("\nfree-expansion bang-bang alternative (omega1 = 0):")
print("   beta    t_f      avg_Ena    bound")
for beta in (0.15, 0.3, 1.0, 3.0):
    bb = protocols.build(spec, protocols.ProtocolParams("bang_bang_na", beta=beta))
    _, avg, _ = energies.nonadiabatic_energy(bb.curve, bb.profile, spec)
    t_f = bb.curve.grid.t_f
    print(f"  {beta:5.2f}  {t_f:6.3f}  {avg:9.4f}  {energies.na_lower_bound(spec, t_f):8.4f}")

print("\nits durations are pinned to (sqrt(gamma^2-1), pi*gamma/2] =",
      f"({np.sqrt(spec.gamma**2 - 1):.3f}, {protocols.bang_bang_max_duration(spec):.3f}]")
