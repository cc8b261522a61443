"""fmesim's records: every one is immutable.  FmeQubitState is the one
record that validates: it guards a computed invariant, the unit norm of a
retrieved qubit, and rejects each bad field on keyword construction with its
own message.  Every configured value, those that SystemParams, DetectorModel
and ReadParams carry and the engine name, cutoff and retry budget that
write_state and ProtocolEngine take, is checked once, at the command line
(test_config_cli.test_out_of_range_override_rejected)."""

import pytest

from fmesim import config as cfg_mod
from fmesim import protocol as pr
from fmesim.retrieval import FmeQubitState

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


QUBIT = dict(c1=0.6, c2=0.8, retrieval_efficiency=1.0)
REJECTIONS = [
    ({"retrieval_efficiency": 1.5}, "retrieval_efficiency must be in [0, 1]"),
    ({"c2": 0.6}, "|c1|^2 + |c2|^2 = 0.72, expected 1"),
]


@pytest.mark.parametrize("change, message", REJECTIONS,
                         ids=[next(iter(change)) for change, _ in REJECTIONS])
def test_validated_record_rejects_bad_field(change, message):
    FmeQubitState(**QUBIT)  # the base fields are valid
    with pytest.raises(ValueError) as err:
        FmeQubitState(**{**QUBIT, **change})
    assert str(err.value) == message
