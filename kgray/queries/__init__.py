"""Driver-contract query catalog (package form of the former flat
kgray/queries.py — same import surface: CATALOG plus every q_* / SQL_*
name).  Submodules pair each Ray implementation with its DuckDB oracle
SQL; ``CATALOG`` is built automatically from the ``q_<name>`` /
``SQL_<NAME>`` convention (a test pins the pairing)."""

from kgray.queries._common import _query_vec, _read, _round_col  # noqa: F401

_SUBMODULES = ["docs", "embeds", "tpch", "events", "curation", "analytics1",
               "analytics2", "analytics3", "analytics4", "analytics5",
               "analytics6", "analytics7", "analytics8", "analytics9",
               "analytics10", "analytics11", "analytics12", "analytics13",
               "analytics14", "llmdata", "round5"]

CATALOG: dict[str, tuple] = {}
for _m in _SUBMODULES:
    _mod = __import__(f"kgray.queries.{_m}", fromlist=["*"])
    for _n in dir(_mod):
        if _n.startswith("q_") and callable(getattr(_mod, _n)) \
           and getattr(getattr(_mod, _n), "__module__", "") == _mod.__name__:
            _key = _n[2:]
            CATALOG[_key] = (getattr(_mod, _n),
                             getattr(_mod, "SQL_" + _key.upper(), None))
        # flat namespace: every q_* / SQL_* name is reachable as
        # kgray.queries.<name>; helpers are imported from their module
        if _n.startswith(("q_", "SQL_")):
            globals()[_n] = getattr(_mod, _n)
