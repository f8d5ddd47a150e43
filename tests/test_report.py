from hypothesis import given
from hypothesis import strategies as st

from arcforms.report import MAX_WITNESSES, Check

cases = st.lists(st.tuples(st.booleans(), st.none() | st.integers()), max_size=3 * MAX_WITNESSES)


@given(st.lists(cases, max_size=4))
def test_tally_many_is_a_loop_of_tally(batches):
    # batches of (ok, witness) cases, tallied one at a time or a batch at a
    # time; witnesses of passing cases are dropped either way
    looped, bulk = Check("looped"), Check("bulk")
    for batch in batches:
        for ok, witness in batch:
            looped.tally(ok, witness)
        bulk.tally_many(len(batch), [witness for ok, witness in batch if not ok])
    assert (bulk.total, bulk.failed, bulk.witnesses) == (looped.total, looped.failed, looped.witnesses)
    assert len(bulk.witnesses) <= MAX_WITNESSES
