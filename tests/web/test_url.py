"""Tests for repro.web.url."""

import re

import pytest

from repro.exceptions import ValidationError
from repro.web import (
    is_dynamic_url,
    make_site_extractor,
    normalize_url,
    parse_url,
    site_of,
)

#: Out-of-range port, non-numeric port, unbalanced IPv6 bracket.
HOSTILE_URLS = ["http://a:99999/", "http://a:x/", "http://[::1/"]


class TestParseURL:
    def test_basic_parsing(self):
        parsed = parse_url("http://www.epfl.ch/research/index.html")
        assert parsed.scheme == "http"
        assert parsed.host == "www.epfl.ch"
        assert parsed.path == "/research/index.html"
        assert parsed.port is None

    def test_host_and_scheme_lowercased(self):
        parsed = parse_url("HTTP://WWW.EPFL.CH/About")
        assert parsed.scheme == "http"
        assert parsed.host == "www.epfl.ch"
        assert parsed.path == "/About"  # path case is preserved

    def test_default_port_dropped(self):
        assert parse_url("http://a.org:80/x").port is None
        assert parse_url("https://a.org:443/x").port is None
        assert parse_url("http://a.org:8080/x").port == 8080

    def test_empty_path_becomes_slash(self):
        assert parse_url("http://a.org").path == "/"

    def test_query_preserved(self):
        parsed = parse_url("http://a.org/s?q=1&r=2")
        assert parsed.query == "q=1&r=2"

    def test_fragment_dropped(self):
        assert "#" not in parse_url("http://a.org/x#frag").unparse()

    def test_missing_scheme_defaults_to_http(self):
        assert parse_url("//a.org/x").scheme == "http"

    def test_rejects_empty_string(self):
        with pytest.raises(ValidationError):
            parse_url("")

    def test_rejects_missing_host(self):
        with pytest.raises(ValidationError):
            parse_url("http:///just-a-path")

    def test_rejects_unsupported_scheme(self):
        with pytest.raises(ValidationError):
            parse_url("ftp://a.org/file")

    @pytest.mark.parametrize("url", HOSTILE_URLS)
    def test_urllib_value_errors_become_validation_errors(self, url):
        # Each of these makes urlsplit / .port raise a bare ValueError.
        with pytest.raises(ValidationError, match=re.escape(repr(url))):
            parse_url(url)


class TestNormalizeURL:
    def test_idempotent(self):
        url = "HTTP://A.ORG:80/Path?x=1"
        assert normalize_url(normalize_url(url)) == normalize_url(url)

    def test_equivalent_urls_normalise_identically(self):
        assert normalize_url("http://A.org") == normalize_url("http://a.org/")

    def test_non_default_port_kept(self):
        assert "8080" in normalize_url("http://a.org:8080/")


class TestDynamicDetection:
    def test_query_string_is_dynamic(self):
        assert is_dynamic_url("http://research.epfl.ch/Webdriver?LO=1")

    def test_php_extension_is_dynamic(self):
        assert is_dynamic_url("http://www.epfl.ch/styles/dynastyle.php")

    def test_plain_html_is_static(self):
        assert not is_dynamic_url("http://www.epfl.ch/place.html")

    def test_directory_url_is_static(self):
        assert not is_dynamic_url("http://www.epfl.ch/150/")


class TestSiteOf:
    def test_host_policy_default(self):
        assert site_of("http://research.epfl.ch/a/b") == "research.epfl.ch"

    def test_domain_policy(self):
        assert site_of("http://research.epfl.ch/a", policy="domain") == "epfl.ch"

    def test_domain_policy_short_host(self):
        assert site_of("http://epfl.ch/a", policy="domain") == "epfl.ch"

    def test_path_prefix_policy(self):
        url = "http://lamp.epfl.ch/~linuxsoft/java/jdk1.4/docs/index.html"
        assert site_of(url, policy="path-prefix") == "lamp.epfl.ch/~linuxsoft"
        assert site_of(url, policy="path-prefix", path_depth=2) == \
            "lamp.epfl.ch/~linuxsoft/java"

    def test_path_prefix_policy_root_page(self):
        assert site_of("http://a.org/", policy="path-prefix") == "a.org"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            site_of("http://a.org/", policy="tld")

    def test_same_site_for_pages_of_one_host(self):
        a = site_of("http://www.epfl.ch/")
        b = site_of("http://www.epfl.ch/place.html")
        assert a == b

    def test_different_hosts_are_different_sites(self):
        assert site_of("http://a.epfl.ch/") != site_of("http://b.epfl.ch/")


class TestMakeSiteExtractor:
    def test_extractor_applies_policy(self):
        extractor = make_site_extractor("domain")
        assert extractor("http://research.epfl.ch/x") == "epfl.ch"

    def test_extractor_with_path_depth(self):
        extractor = make_site_extractor("path-prefix", path_depth=1)
        assert extractor("http://a.org/lab/page.html") == "a.org/lab"
