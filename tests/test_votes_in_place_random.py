"""Random vote texts parsed in place against the text route (see ``test_votes_in_place``).

Needs ``hypothesis``; without it this module is skipped and the hand-written
cases in ``test_votes_in_place`` still run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings    # noqa: E402
from hypothesis import strategies as st                 # noqa: E402

from test_votes_in_place import both_routes             # noqa: E402

TEXTS = st.text(alphabet=st.sampled_from("0123456789,, \t\r\n#+\"-."), max_size=60)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=TEXTS, header=st.sampled_from(["", "node_id,sample_index,class\n"]))
def test_random_texts_parse_as_the_text_route(tmp_path, text, header):
    path = tmp_path / "votes.csv"
    path.write_bytes((header + text).encode())
    got, text_route = both_routes(path)
    assert got == text_route
