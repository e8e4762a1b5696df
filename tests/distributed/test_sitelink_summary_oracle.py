"""``summarize_sitelinks`` against the per-edge loop it replaced.

The summary reads its counts from the rows of ``aggregate_sitegraph``'s
CSR; the oracle walks every DocLink and looks both ends' sites up, as the
protocol did before.  Over drawn webs and partitions of their sites into
peers, both must give the same message: the same ``(source, target,
count)`` triples in the same order, the same ``sites`` and so the same
wire frame.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import SiteLinkSummary, summarize_sitelinks
from repro.distributed.codec import encode_message
from repro.graphgen import generate_synthetic_web
from repro.io import toy_web


def oracle_summary(docgraph, sites, *, sender, recipient):
    """The per-edge SiteLink count (the protocol's original loop)."""
    own_sites = set(sites)
    counts = {}
    for source, target in docgraph.edges():
        source_site = docgraph.site_of_document(source)
        if source_site not in own_sites:
            continue
        target_site = docgraph.site_of_document(target)
        if target_site == source_site:
            continue
        key = (source_site, target_site)
        counts[key] = counts.get(key, 0) + 1
    summary = tuple((source, target, count)
                    for (source, target), count in sorted(counts.items()))
    return SiteLinkSummary(sender=sender, recipient=recipient,
                           counts=summary, sites=tuple(sorted(own_sites)))


def assert_summaries_match(graph, owner_of_site):
    """Every peer's summary equals the oracle's, frame for frame."""
    sites = graph.sites()
    for peer in sorted(set(owner_of_site)):
        own = [site for site, owner in zip(sites, owner_of_site)
               if owner == peer]
        got = summarize_sitelinks(graph, own, sender=f"peer-{peer}",
                                  recipient="coordinator")
        want = oracle_summary(graph, own, sender=f"peer-{peer}",
                              recipient="coordinator")
        assert got == want
        assert encode_message(got) == encode_message(want)


@st.composite
def webs_and_partitions(draw):
    n_sites = draw(st.integers(1, 14))
    graph = generate_synthetic_web(
        n_sites=n_sites,
        n_documents=n_sites * draw(st.integers(1, 8)),
        intra_out_degree=draw(st.integers(0, 4)),
        inter_site_links=draw(st.integers(0, 60)),
        seed=draw(st.integers(0, 10_000)))
    urls = graph.registry.urls
    # Extra links, repeated pairs and intra-site ones included.
    for source, target in draw(st.lists(
            st.tuples(st.integers(0, len(urls) - 1),
                      st.integers(0, len(urls) - 1)), max_size=30)):
        graph.add_link(urls[source], urls[target])
    n_peers = draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(0, n_peers - 1),
                           min_size=graph.n_sites, max_size=graph.n_sites))
    return graph, owners


@given(case=webs_and_partitions())
@settings(max_examples=40, deadline=None)
def test_summaries_equal_the_per_edge_loop(case):
    graph, owners = case
    assert_summaries_match(graph, owners)


def test_toy_web_one_peer_per_site():
    graph = toy_web()
    assert_summaries_match(graph, list(range(graph.n_sites)))


def test_synthetic_web_eight_peers():
    graph = generate_synthetic_web(n_sites=40, n_documents=900, seed=5)
    owners = np.arange(graph.n_sites) % 8
    assert_summaries_match(graph, owners.tolist())
