"""EDL parser robustness: fuzzing and round-trip properties."""

from hypothesis import given, settings, strategies as st

from repro.errors import EdlSyntaxError
from repro.sdk.edl import parse_edl

_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True)
_TYPE = st.sampled_from(["void", "int", "bytes", "str"])
_SECTION = st.sampled_from(["trusted", "untrusted", "nested_trusted",
                            "nested_untrusted"])


@st.composite
def _function_decl(draw):
    name = draw(_IDENT)
    ret = draw(_TYPE)
    nparams = draw(st.integers(0, 3))
    params = []
    seen = set()
    for _ in range(nparams):
        ptype = draw(_TYPE.filter(lambda t: t != "void"))
        pname = draw(_IDENT.filter(lambda n: n not in seen))
        seen.add(pname)
        params.append(f"{ptype} {pname}")
    public = draw(st.booleans())
    prefix = "public " if public else ""
    return name, f"{prefix}{ret} {name}({', '.join(params) or 'void'});"


@st.composite
def _edl_source(draw):
    sections = draw(st.lists(_SECTION, min_size=1, max_size=4,
                             unique=True))
    body = []
    expected = {}
    for section in sections:
        decls = draw(st.lists(_function_decl(), min_size=1, max_size=4,
                              unique_by=lambda d: d[0]))
        expected[section] = {name for name, _ in decls}
        rendered = "\n".join(text for _, text in decls)
        body.append(f"{section} {{\n{rendered}\n}};")
    return "enclave {\n" + "\n".join(body) + "\n};", expected


class TestFuzz:
    @given(_edl_source())
    @settings(max_examples=50, deadline=None)
    def test_generated_edl_parses_to_expected_names(self, source_case):
        source, expected = source_case
        spec = parse_edl(source)
        for section, names in expected.items():
            assert set(spec.section(section)) == names

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text_never_crashes_uncontrolled(self, text):
        """Garbage must either parse (if it happens to be valid) or
        raise EdlSyntaxError — never any other exception type."""
        try:
            parse_edl(text)
        except EdlSyntaxError:
            pass

    @given(_edl_source())
    @settings(max_examples=25, deadline=None)
    def test_loc_counts_match_structure(self, source_case):
        source, expected = source_case
        spec = parse_edl(source)
        functions = sum(len(v) for v in expected.values())
        sections = len(expected)
        assert spec.loc() == 2 + 2 * sections + functions
