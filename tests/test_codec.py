import pytest

from smallgen.anatomy import anatomy_record, dyadic_schedule
from smallgen.codec import from_json, to_json
from smallgen.experiments import density_experiment, survey_row
from smallgen.genset import Certificate, candidate_table, certify
from smallgen.modcore import field_spec
from smallgen.sievelab import PrimeSetSpec, sieve_bound_check

RECORDS = {
    # 41 - 1 = 2^3 * 5: the certificate comes from combining two elements.
    "GenSetResult": lambda: certify(candidate_table(field_spec(41)), "exact"),
    "SurveyRow": lambda: survey_row(577, (2.0, 3.0)),
    "AnatomyRecord": lambda: anatomy_record(720720, [2.0, 3.0]),
    "DyadicSchedule": lambda: dyadic_schedule(2305843009213693951),
    "DensityRow": lambda: density_experiment(10**4, [3.0])[0],
    "SieveReport": lambda: sieve_bound_check(PrimeSetSpec.threshold(10**4, 2.0), 2.0, 4.0, 0.1),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_json_round_trip(name):
    x = RECORDS[name]()
    assert type(x).__name__ == name
    back = from_json(type(x), to_json(x))
    assert back == x
    assert from_json(type(x), to_json([x, x])) == [x, x]


def test_certificate_reads_back_as_a_certificate():
    x = RECORDS["GenSetResult"]()
    back = from_json(type(x), to_json(x))
    assert isinstance(back.certificate, Certificate)
    assert back.certificate.order == 40
