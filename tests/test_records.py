"""fmesim's records: every one is immutable, and the five that validate
(SystemParams, DetectorModel, ReadParams, FmeQubitState, ProtocolSetup)
reject each bad field on keyword construction with their own message."""

import pytest

from fmesim import config as cfg_mod
from fmesim import protocol as pr
from fmesim import write_dynamics as wd
from fmesim.herald import DetectorModel
from fmesim.retrieval import FmeQubitState, ReadParams

# Each record type with one of its fields.
RECORD_FIELDS = [
    ("KeySpec", "kind"),
    ("Preset", "name"),
    ("ResolvedConfig", "values"),
    ("SystemParams", "delta"),
    ("DerivedRates", "chi_I"),
    ("PairState", "chain"),
    ("DetectorModel", "eta"),
    ("HeraldBranch", "kind"),
    ("ReadParams", "omega_out_I"),
    ("FmeQubitState", "c1"),
    ("ProtocolSetup", "max_trials"),
    ("ProtocolStats", "n_runs"),
    ("RunTally", "counts"),
]


@pytest.fixture(scope="module")
def records():
    cfg = cfg_mod.load_config(preset="rb85-87")
    setup = cfg_mod.build_setup(cfg)
    engine = pr.ProtocolEngine(setup)
    tally = pr.run_protocol(engine, 1, 100)
    found = [
        cfg_mod.SCHEMA["eta"], cfg_mod.RB85_87, cfg, setup.system, engine.rates,
        engine.write_state, setup.detector, engine.branches[0], setup.read, engine.qubit,
        setup, pr.aggregate(tally, engine.branches, engine.qubit), tally,
    ]
    return {type(record).__name__: record for record in found}


@pytest.mark.parametrize("name, field", RECORD_FIELDS)
def test_record_rejects_attribute_assignment(records, name, field):
    record = records[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # no instance dict takes a new attribute either
        record.extra = 1


SYSTEM = dict(g_I=1.0, g_II=1.0, N_I=4.0, N_II=4.0, omega_W_I=2.0, omega_W_II=2.0,
              delta=100.0, tau_write=1.0)
DETECTOR = dict(eta=0.6, dark_rate=400.0, gate=1e-6)
READ = dict(omega_out_I=-1.0e9, omega_out_II=1.0e9)
QUBIT = dict(c1=0.6, c2=0.8, retrieval_efficiency=1.0)


def _setup(**changes):
    base = dict(system=wd.SystemParams(**SYSTEM), detector=DetectorModel(**DETECTOR),
                read=ReadParams(**READ), max_trials=100)
    return pr.ProtocolSetup(**{**base, **changes})


REJECTIONS = [
    (wd.SystemParams, SYSTEM, {"delta": 0.0},
     "delta must be nonzero (adiabatic elimination is singular)"),
    (wd.SystemParams, SYSTEM, {"N_I": 0.5}, "atom numbers must be >= 1"),
    (wd.SystemParams, SYSTEM, {"N_II": 0.5}, "atom numbers must be >= 1"),
    (wd.SystemParams, SYSTEM, {"tau_write": 0.0}, "tau_write must be > 0"),
    (DetectorModel, DETECTOR, {"eta": 1.5}, "eta must be in [0, 1], got 1.5"),
    (DetectorModel, DETECTOR, {"dark_rate": -1.0}, "dark_rate must be >= 0"),
    (DetectorModel, DETECTOR, {"gate": 0.0}, "gate must be > 0"),
    (ReadParams, READ, {"omega_out_II": -1.0e9}, "output frequencies must differ"),
    (ReadParams, READ, {"efficiency_I": 1.5}, "efficiency_I must be in [0, 1], got 1.5"),
    (ReadParams, READ, {"efficiency_II": -0.5}, "efficiency_II must be in [0, 1], got -0.5"),
    (FmeQubitState, QUBIT, {"retrieval_efficiency": 1.5},
     "retrieval_efficiency must be in [0, 1]"),
    (FmeQubitState, QUBIT, {"c2": 0.6}, "|c1|^2 + |c2|^2 = 0.72, expected 1"),
    (_setup, {}, {"engine": "magic"},
     "engine must be one of ('perturbative', 'exact'), got 'magic'"),
    (_setup, {}, {"cutoff": 0}, "cutoff must be >= 1"),
    (_setup, {}, {"max_trials": 0}, "max_trials must be >= 1"),
]


@pytest.mark.parametrize("build, base, change, message", REJECTIONS,
                         ids=[next(iter(change)) for _, _, change, _ in REJECTIONS])
def test_validated_record_rejects_bad_field(build, base, change, message):
    build(**base)  # the base fields are valid
    with pytest.raises(ValueError) as err:
        build(**{**base, **change})
    assert str(err.value) == message
