"""Seeded generator of small scenario configs for the short-runs workload.

The program only ever sees the JSON text this module writes.  Scenarios
come in blocks of 20: four per method, so every whole block has the same
mix of methods, step-count strata, profile kinds and defect-ladder requests.
The seed chooses everything inside a block: registry names, rates, start
times, step sizes, sampling modes, initial quaternions, which of the four
gets a defect ladder, and the order.  Step counts lie in 20..200.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

METHODS = ("SGA-A", "SGA-NA", "RK4", "EUB", "GL2")
REGISTRY = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2", "coning")
STEP_STRATA = ((20, 64), (65, 109), (110, 154), (155, 200))
BLOCK = len(METHODS) * len(STEP_STRATA)

# Coning parameters: pi literals exercise the config's pi parser.
CONING_OMEGA0 = (("2pi", 2.0 * math.pi), ("pi", math.pi), ("3pi/2", 1.5 * math.pi))
CONING_BETA = (("pi/80", math.pi / 80.0), ("pi/40", math.pi / 40.0), ("pi/12", math.pi / 12.0))


@dataclass(frozen=True)
class Scenario:
    text: str
    steps: int
    method: str
    kind: str
    sampling: str
    ladder: bool


def _unit_quaternion(rng: random.Random) -> list[float]:
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    return [c / n for c in q]


def _profile(rng, kind, method, t0, tf, tau):
    """Return (profile JSON value, oracle JSON value or None, q0)."""
    if kind == "registry":
        name = "fig1a" if method == "SGA-A" else rng.choice(REGISTRY)
        oracle = "constant-analytic" if name == "fig1a" and rng.random() < 0.5 else None
        return name, oracle, _unit_quaternion(rng)
    if kind == "constant":
        # |w| <= 6 sqrt(3) keeps tau <= 0.01 inside the 1/(5|w|) guideline.
        omega = [round(rng.uniform(-6.0, 6.0), 6) for _ in range(3)]
        oracle = "constant-analytic" if rng.random() < 0.5 else None
        return {"type": "constant", "omega": omega}, oracle, _unit_quaternion(rng)
    if kind == "coning":
        w_text, w0 = rng.choice(CONING_OMEGA0)
        b_text, beta = rng.choice(CONING_BETA)
        # Start on the analytic trajectory so the auto-wired oracle applies.
        q0 = [
            math.cos(beta / 2.0),
            0.0,
            math.sin(beta / 2.0) * math.cos(w0 * t0),
            math.sin(beta / 2.0) * math.sin(w0 * t0),
        ]
        return {"type": "coning", "omega0": w_text, "beta": b_text}, None, q0
    # Tabulated: samples reach one step past each end of the horizon, so
    # every stage time of every method lies inside the table.
    n = rng.randint(4, 24)
    t_lo, t_hi = t0 - tau, tf + tau
    samples = [
        [t_lo + (t_hi - t_lo) * i / (n - 1), [round(rng.uniform(-4.0, 4.0), 6) for _ in range(3)]]
        for i in range(n)
    ]
    return {"type": "tabulated", "samples": samples}, None, _unit_quaternion(rng)


def _scenario(rng, index, method, kind, stratum, ladder) -> Scenario:
    steps = rng.randint(*stratum)
    tau = rng.choice((0.005, 0.01))
    t0 = round(rng.uniform(0.0, 5.0), 3)
    tf = t0 + steps * tau
    sampling = rng.choice(("exact", "interp"))
    profile, oracle, q0 = _profile(rng, kind, method, t0, tf, tau)
    outputs = ["series"]
    if oracle is not None or kind == "coning" or profile == "coning":
        outputs.append("error-report")
    if ladder:
        outputs.append("defect-ladder")
    cfg = {
        "name": f"short-{index}-{method}",
        "profile": profile,
        "q0": q0,
        "t0": t0,
        "tf": tf,
        "tau": tau,
        "method": method,
        "sampling": sampling,
        "outputs": outputs,
    }
    if oracle is not None:
        cfg["oracle"] = oracle
    return Scenario(json.dumps(cfg), steps, method, kind, sampling, ladder)


def generate(seed: int, blocks: int) -> list[Scenario]:
    """`blocks` blocks of BLOCK scenarios, fully determined by `seed`."""
    rng = random.Random(seed)
    out: list[Scenario] = []
    for _ in range(blocks):
        block = []
        for method in METHODS:
            kinds = (
                ["registry", "constant"] * 2
                if method == "SGA-A"
                else ["registry", "constant", "coning", "tabulated"]
            )
            rng.shuffle(kinds)
            ladder_at = rng.randrange(len(STEP_STRATA))
            for j, (kind, stratum) in enumerate(zip(kinds, STEP_STRATA)):
                block.append((method, kind, stratum, j == ladder_at))
        rng.shuffle(block)
        for spec in block:
            out.append(_scenario(rng, len(out), *spec))
    return out
