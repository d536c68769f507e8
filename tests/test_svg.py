import re
from xml.dom.minidom import parseString

from infoeff.svg import line_chart


def test_constant_curve_spans_its_value_plus_minus_half():
    svg = line_chart([(0.0, 0.3), (1.0, 0.3)], "x", "y", title="flat")
    y_ticks = re.findall(r'text-anchor="end" [^>]*>([^<]*)</text>', svg)
    assert y_ticks == ["-0.2", "0.05", "0.3", "0.55", "0.8"]
    # The curve runs across the middle of the plot: y = 30 + 355 / 2.
    assert '<polyline points="70.00,207.50 620.00,207.50"' in svg


def test_constant_x_spans_its_value_plus_minus_half():
    svg = line_chart([(0.5, 0.0), (0.5, 1.0)], "x", "y", title="vertical")
    x_ticks = re.findall(r'text-anchor="middle" font-family="sans-serif" font-size="11">([^<]*)<', svg)
    assert x_ticks == ["0", "0.25", "0.5", "0.75", "1"]
    # The curve runs up the middle of the plot: x = 70 + 550 / 2.
    assert '<polyline points="345.00,385.00 345.00,30.00"' in svg


def test_label_text_is_escaped():
    svg = line_chart([(0, 0), (1, 1)], "p < q & r", "y", title="t")
    texts = parseString(svg).getElementsByTagName("text")
    assert "p < q & r" in [node.firstChild.data for node in texts]
