#!/usr/bin/env python3
"""Flattening the instantaneous power of an expansion.

The power P = ((2n+1)/4) (d omega^2/dt) b^2 integrates to the same total
for every complete protocol, so only its peak can be engineered.  Perfectly
constant power is not compatible with the boundary conditions (the shooting
solution misses them), but a seventh-order interpolant with two free
coefficients gets the peak within a factor ~2 of the ideal floor of 1.
"""
import numpy as np

from staexpand import TrapSpec, energies, optimize, protocols

spec = TrapSpec(2.0 * np.pi * 2500.0, 2.0 * np.pi * 25.0)  # gamma = 10
t_f = spec.omega0 * 8e-3  # 8 ms

print("relative power |P_rel| peaks at gamma = 10, t_f = 8 ms")
quintic = protocols.build(spec, protocols.ProtocolParams("quintic", t_f, grid_n=4001))
q = energies.power(quintic.curve, quintic.profile, spec)
print(f"  quintic interpolant:        {q.peak_rel:.4f}")

res = optimize.optimize_septic_power(spec, t_f)
print(f"  septic, optimized (c3, c4): {res.objective:.4f} at "
      f"({res.params[0]:.4f}, {res.params[1]:.4f})")
print(f"  septic, coefficients (0,0): {res.baseline:.4f}")
print("  floor from the mean value theorem: 1.0")

print("\nwhy not exactly constant power? shoot the constant-power equation:")
for tau in (0.3 * t_f, t_f, 2.0 * t_f):
    _, mism = protocols.constant_power_shoot(spec, tau)
    print(f"  t_f = {1e3 * tau / spec.omega0:6.2f} ms: b misses gamma by "
          f"{mism.b_error:+8.3f}, final slope {mism.bdot_f:+.4f}")
print("the terminal conditions fail generically, so peak shaping with the")
print("septic family is the practical route")

sc = protocols.build(spec, protocols.ProtocolParams("septic", t_f, *res.params, grid_n=4001))
sp = energies.power(sc.curve, sc.profile, spec)
print("\n     s     P_rel quintic   P_rel septic")
for s in np.linspace(0.0, 1.0, 11):
    i = int(round(s * 4000))
    print(f"  {s:5.2f}  {q.P_rel[i]:+13.4f}  {sp.P_rel[i]:+12.4f}")
