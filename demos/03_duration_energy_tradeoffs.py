#!/usr/bin/env python3
"""How fast can an expansion run at a given transient-energy budget?

Three curves in the duration/averaged-energy plane for the 2500 Hz ->
25 Hz trap: the smooth quintic protocol, equal-step bang-bang control,
and the unconditional lower bound.  Bang-bang exists only up to
t_f = pi / (2 sqrt(omega0 omega_f)) = 1 ms, where it reaches the least
averaged energy any two-step protocol can have.
"""
import numpy as np

from staexpand import TrapSpec, energies, protocols
from staexpand.core import Infeasible

spec = TrapSpec(2.0 * np.pi * 2500.0, 2.0 * np.pi * 25.0)
t_max = protocols.bang_bang_max_duration(spec)

print("gamma = 10 trap, energies in hbar*omega0, times in ms")
print("   t_f(ms)   quintic    bang-bang   bound E_nL")
for tau in np.geomspace(0.05 * t_max, t_max, 10):
    p = protocols.build(spec, protocols.ProtocolParams("quintic", tau))
    curve, profile = p.curve, p.profile
    tr = energies.averages(energies.instantaneous(curve, profile, spec), curve, spec, profile)
    bound = energies.lower_bound_avg_energy(spec, float(tau)).value
    try:
        times = protocols.two_step_times(spec, "bang_bang", float(tau))
        e_bb = energies.bang_bang_energies(spec, **times)
        bb_txt = f"{e_bb:9.4f}"
    except Infeasible:
        bb_txt = "        -"
    ms = 1e3 * tau / spec.omega0
    print(f"  {ms:8.4f}  {tr.avg_E:9.4f}  {bb_txt}  {bound:10.4f}")

print(f"\nbang-bang terminal point: t_f = {1e3 * t_max / spec.omega0:.3f} ms, "
      f"avg_E = {energies.bound_report(spec, 1.0).E_min} hbar*omega0")
print("the bound is attainable (by the impulse protocol), so the bound")
print("column is also the fastest possible protocol at each energy budget")
