"""docs/API.md is generated from the package's docstrings and must match them."""

from tools.gen_api_docs import API_DOC, render


def test_api_doc_matches_the_package():
    assert render() == API_DOC.read_text(), (
        "docs/API.md is stale; regenerate it with "
        "`PYTHONPATH=src python tools/gen_api_docs.py`"
    )
