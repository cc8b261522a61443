"""The standard-library engine against the numpy expressions it replaced.

The write engine, the click branch table and the retrieved qubit are scalar
work over at most 33 amplitudes, so fmesim builds them with math and itertools.
The reference below keeps the numpy expressions that built them before:
the np.cosh chain of the closed-form state, the np.linalg.norm
normalisation of the short-time state, np.abs(chain)**2, the float dot
product in the mean occupation and np.cumsum for the branch CDF.  numpy's
vectorised cosh, pow and norm do not round as libm and a sequential sum do,
so the two may differ in the last bits; every field must agree to within
4 ulp and in type (a float printed as 0 is not 0.0), and every branch label
exactly.  The engine's branch thresholds ceil(cdf_j 2^53), scaled by 2^-53,
must agree with the reference CDF to within 4 ulp plus the 2^-53 that the
ceiling adds.
"""

import math

import numpy as np
import pytest

from fmesim import config as cfg_mod
from fmesim import write_dynamics as wd

MAX_ULP = 4


def agree(a: float, b: float, slack: float = 0.0) -> bool:
    """Equal, or within MAX_ULP spacings of the larger magnitude plus slack."""
    return a == b or abs(a - b) <= MAX_ULP * np.spacing(max(abs(a), abs(b))) + slack


def reference_chain(rates, engine, cutoff):
    """Chain amplitudes and tail ratio as the numpy build computed them, both
    engines from the one amplitude r = |P|."""
    p, _, _ = wd._bright_mode(rates.P_I, rates.P_II)
    if engine == "perturbative":
        chain = np.zeros(cutoff + 1, dtype=complex)
        chain[:2] = 1.0, -1j * p
        if cutoff >= 2:  # second order wherever the cutoff allows it
            chain[0] -= p * p / 2.0
            chain[2] = -p * p
        return chain / np.linalg.norm(chain), 0.0
    th = math.tanh(p)
    with np.errstate(over="ignore"):
        sech = 1.0 / np.cosh(p)
    n = np.arange(cutoff + 1)
    return (-1j) ** n * th**n * sech, th * th


def reference_engine(cfg, system, det):
    """The fields of cfg's ProtocolEngine, computed with the numpy expressions
    from the SystemParams and DetectorModel that config.build_setup made."""
    rates = wd.derive_rates(system)
    chain, lam = reference_chain(rates, cfg.values["engine"], cfg.values["cutoff"])
    p_n, top = np.abs(chain) ** 2, chain.size
    with np.errstate(divide="ignore"):
        tail = lam**top * (top + lam / p_n[0]) if lam else 0.0
    mean_occupation = float(np.arange(top) @ p_n + tail)
    miss = [(1.0 - det.eta) ** n for n in range(top + 1)]
    weights = [("photon", n, p_n[n] * (1.0 - miss[n])) for n in range(1, top)]
    if det.p_dark > 0.0:
        weights += [("dark", n, p_n[n] * miss[n] * det.p_dark) for n in range(top)]
    s, lam_eta = p_n[0], lam * det.eta
    den = s + lam_eta
    seen = (s * (1.0 - miss[top]) + lam_eta) / den if den else 0.0
    missed = s * miss[top] / den if den else 1.0
    weights += [("photon", top, lam**top * seen), ("dark", top, lam**top * missed * det.p_dark)]
    branches = [(kind, n, float(w)) for kind, n, w in weights if w > 0.0]
    total = float(sum(w for _, _, w in branches))
    cdf = np.cumsum([w / total for _, _, w in branches]) if total > 0.0 else np.array([])
    false = sum(w for kind, n, w in branches if kind == "dark" or n >= 2)
    return {
        "chain": chain.tolist(),
        "tail_ratio": lam,
        "mean_occupation": mean_occupation,
        "branches": branches,
        "thresholds": cdf[:-1].tolist(),
        "p_click": min(total, 1.0),
        "false_fraction": false / total if total > 0.0 else 0.0,
    }


def engine_fields(engine):
    state = engine.write_state
    return {
        "chain": list(state.chain),
        "tail_ratio": state.tail_ratio,
        "mean_occupation": state.mean_occupation(),
        "branches": [(b.kind, b.n_photons, b.probability) for b in engine.branches],
        "thresholds": [t * 2.0**-53 for t in engine.thresholds],
        "p_click": engine.p_click,
        "false_fraction": engine.false_fraction,
    }


def floats(name, value):
    """(label, float) for every number of one field; labels carry the index
    and the branch kind and photon number, which must match exactly."""
    if name == "chain":
        for n, c in enumerate(value):
            yield f"chain[{n}].real", c.real
            yield f"chain[{n}].imag", c.imag
    elif name == "branches":
        for kind, n, w in value:
            yield f"branch {kind} {n}", w
    elif name == "thresholds":
        for i, x in enumerate(value):
            yield f"thresholds[{i}]", x
    else:
        yield name, value


def config_for(*sets):
    return cfg_mod.load_config(preset="rb85-87", overrides=list(sets))


GRID = [
    (engine, cutoff, eta, dark, phase)
    for engine in ("perturbative", "exact")
    for cutoff in (1, 2, 3, 32)
    for eta in (0.0, 0.6, 1.0)
    for dark in (0.0, 400.0, 1e5)
    for phase in (0.0, 1.0)
]


def assert_agree(cfg):
    engine = cfg_mod.build_setup(cfg)
    got, want = engine_fields(engine), reference_engine(cfg, engine.system, engine.detector)
    for name in want:
        new, ref = list(floats(name, got[name])), list(floats(name, want[name]))
        assert [label for label, _ in new] == [label for label, _ in ref], name
        slack = 2.0**-53 if name == "thresholds" else 0.0
        for (label, a), (_, b) in zip(new, ref):
            assert type(a) is type(b) and agree(a, b, slack), (label, a, b)
    return engine


def reference_qubit(spin, read):
    """retrieve_fme's amplitudes with the read phase as np.exp."""
    alpha, beta = spin
    c1 = alpha * math.sqrt(read.efficiency_I)
    c2 = beta * math.sqrt(read.efficiency_II) * np.exp(1j * read.phase_II)
    scale = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    return complex(c1 / scale), complex(c2 / scale)


@pytest.mark.parametrize("engine, cutoff, eta, dark, phase", GRID)
def test_engine_agrees_with_numpy_reference(engine, cutoff, eta, dark, phase):
    sets = (f"engine={engine}", f"cutoff={cutoff}", f"eta={eta}", f"dark_rate_hz={dark}",
            f"read_phase={phase}")
    built = assert_agree(config_for(*sets))
    qubit = built.qubit
    for a, b in zip((qubit.c1, qubit.c2), reference_qubit(built.spin, built.read)):
        assert agree(a.real, b.real) and agree(a.imag, b.imag), (a, b)


@pytest.mark.parametrize("eta", [0.6, 0.0])
def test_saturated_exact_state_agrees_with_numpy_reference(eta):
    # N_I = 1e300: cosh r overflows, so math.cosh raises where np.cosh gave inf
    engine = assert_agree(config_for("N_I=1e300", "engine=exact", f"eta={eta}"))
    assert engine.write_state.mean_occupation() == math.inf
    assert list(engine.write_state.chain) == [0j] * 3 and engine.write_state.tail_ratio == 1.0
