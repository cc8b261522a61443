"""fmesim's records: every one is immutable.  The one that validates,
FmeQubitState, guards a computed invariant and rejects each bad field on
keyword construction with its own message, as write_state and ProtocolEngine
reject a bad engine name, cutoff or retry budget.  The configured values that
SystemParams, DetectorModel and ReadParams carry are checked once, by the
config schema (test_config_cli.test_out_of_range_override_rejected)."""

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
    ("ReadParams", "efficiency_I"),
    ("FmeQubitState", "c1"),
    ("ProtocolStats", "n_runs"),
    ("RunTally", "counts"),
]


@pytest.fixture(scope="module")
def records():
    cfg = cfg_mod.load_config(preset="rb85-87")
    engine = cfg_mod.build_setup(cfg)
    tally = next(pr.run_rows([engine], 1, [100]))
    found = [
        cfg_mod.SCHEMA["eta"], cfg_mod.RB85_87, cfg, engine.system,
        engine.rates, engine.write_state, engine.detector, engine.branches[0], engine.read,
        engine.qubit, pr.aggregate(tally, engine), tally,
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
READ = dict(efficiency_I=1.0, efficiency_II=1.0)
QUBIT = dict(c1=0.6, c2=0.8, retrieval_efficiency=1.0)


WRITE = dict(rates=wd.derive_rates(wd.SystemParams(**SYSTEM)), cutoff=2, engine="perturbative")
ENGINE = dict(system=wd.SystemParams(**SYSTEM), detector=DetectorModel(**DETECTOR),
              read=ReadParams(**READ), max_trials=100, engine="perturbative", cutoff=2)


REJECTIONS = [
    (FmeQubitState, QUBIT, {"retrieval_efficiency": 1.5},
     "retrieval_efficiency must be in [0, 1]"),
    (FmeQubitState, QUBIT, {"c2": 0.6}, "|c1|^2 + |c2|^2 = 0.72, expected 1"),
    (wd.write_state, WRITE, {"engine": "magic"},
     "engine must be one of ('perturbative', 'exact'), got 'magic'"),
    (wd.write_state, WRITE, {"cutoff": 0}, "cutoff must be >= 1, got 0"),
    (pr.ProtocolEngine, ENGINE, {"max_trials": 0}, "max_trials must be >= 1"),
]


@pytest.mark.parametrize("build, base, change, message", REJECTIONS,
                         ids=[next(iter(change)) for _, _, change, _ in REJECTIONS])
def test_validated_record_rejects_bad_field(build, base, change, message):
    build(**base)  # the base fields are valid
    with pytest.raises(ValueError) as err:
        build(**{**base, **change})
    assert str(err.value) == message
