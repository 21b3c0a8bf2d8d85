##
## Bit-for-bit pins of the approximate kernels: Jacobi singular values,
## loop increments, spray-field flows and compiled polynomial values.
## The expected values were recorded from the straightforward loops these
## kernels replaced, and each is compared with ==, not a tolerance.
##

import cmath

import pytest

from sl2factor.exact_algebra import ExactComplex, MultiPoly, compile_approx
from sl2factor.obstruction import (LoopSamples, continuous_section_h3,
                                   sample_loop)
from sl2factor.submersion_spray import (VectorFieldSpec, _singular_values,
                                        flow_rk4, sl2_jacobian, v_field_spec)
from sl2factor.word_core import PhiTemplate

GENERIC = [0.3 - 0.2j, 1.1, -0.7 + 0.4j, 0.2j, 0.9]
SINGULAR = [2.0 + 1j, 0.0, 0.0, 0.0, 3.0 - 0.5j]  # on S_5

# name: (point, scale of the frame, singular values)
FRAMES = {
    "generic": (GENERIC, 1.0,
                [2.12956911106033, 0.6619424570306693, 0.2836695710248031]),
    "singular": (SINGULAR, 1.0,
                 [2.00688428458408, 0.18685681226395046,
                  4.376992601071836e-21]),
    "generic_6": ([0.5 + 0.5j, -1.2, 0.3j, 0.8 - 0.1j, 1.5, -0.4 + 0.9j],
                  1.0,
                  [1.28050417778974, 0.46106814729008594,
                   0.12113378158125626]),
    "big": (GENERIC, 1e150,
            [2.12956911106033, 0.6619424570306692, 0.2836695710248031]),
    "small": (GENERIC, 1e-150,
              [2.1295691110603303, 0.6619424570306693, 0.2836695710248031]),
    "big_singular": (SINGULAR, 1e150,
                     [2.00688428458408, 0.18685681226395046,
                      4.376992601071836e-21]),
    "small_singular": (SINGULAR, 1e-150,
                       [2.00688428458408, 0.18685681226395046,
                        4.376992601071836e-21]),
}


@pytest.mark.parametrize("name", FRAMES)
def test_singular_values_are_pinned(name):
    point, scale, expected = FRAMES[name]
    frame = sl2_jacobian(PhiTemplate(len(point)), point)
    rows = [[scale * col[i] for col in frame.columns] for i in range(3)]
    assert _singular_values(rows) == expected


def test_loop_increments_are_pinned():
    loop = LoopSamples([1.0, 0.6 + 0.7j, -0.2 + 1.1j, -0.9 + 0.3j,
                        -0.8 - 0.6j, 0.1 - 1.2j, 0.9 - 0.5j, 1.3 + 0.1j])
    assert loop.increments == (
        0.8621700546672263, 0.8884797719201486, 1.069192272605776,
        0.9652516631899265, 1.0104364498900535, 0.9805565905141185,
        0.5838703956621151, -0.07677189126977804)

    def section(th):
        w = 1.3 * cmath.exp(1j * th)
        return continuous_section_h3((0.7 + 0.4j) / w, w)
    # 4 samples double twice, to 16
    assert sample_loop(section, 4).increments == (
        0.7853981633974484, 0.785398163397448, 0.7853981633974484,
        0.7853981633974483, 0.7853981633974485, 0.7853981633974481,
        0.7853981633974484, 0.7853981633974483, 0.7853981633974484,
        0.7853981633974482, 0.7853981633974474, 0.7853981633974492,
        0.7853981633974493, 0.7853981633974474, 0.7853981633974474,
        0.7853981633974496)


def _nonaffine_spec():
    z = [MultiPoly.variable(3, i) for i in range(3)]
    p = z[0] ** 2 * z[1] ** 2 + z[0] ** 3 + z[1] * z[2]
    return VectorFieldSpec(p, 0, 1)


START_7 = [0.3 - 0.1j, 0.4, -0.2 + 0.5j, 0.1j, 0.45 - 0.05j]
# name: (spec, start, t, step, direction, (end, p_start, p_end)); the
# three v fields are those of the float-analysis benchmark, and their
# flows run its t and step
FLOWS = {
    (6, 2, 4): (
        lambda: v_field_spec(6, 2, 4),
        [0.31 - 0.12j, 0.05 + 0.4j, -0.22 + 0.1j, 0.37j], 0.25, 0.005, 1.0,
        (((0.29906254318059944-0.023448892820045978j), (0.05+0.4j),
          (-0.24100046428410438-0.09125120544234251j), 0.37j),
         (1.0781557+0.14176509999999998j),
         (1.0781557000000002+0.1417650999999999j))),
    (7, 3, 5): (
        lambda: v_field_spec(7, 3, 5), START_7, 0.25, 0.005, 1.0,
        (((0.3-0.1j), (0.42148107749891817+0.11732779326180756j),
          (-0.2+0.5j), (-0.07027979780941619+0.12677969277941198j),
          (0.45-0.05j)),
         (1.0732000000000002-0.030400000000000014j),
         (1.0732-0.03039999999999999j))),
    (8, 2, 6): (
        lambda: v_field_spec(8, 2, 6),
        [0.1 + 0.2j, -0.3 + 0.1j, 0.25, 0.05 - 0.4j, 0.2j, -0.15],
        0.25, 0.005, 1.0,
        (((0.06071785499401009+0.20641793704468156j), (-0.3+0.1j),
          (0.25+0j), (0.05-0.4j), (0.09752613430668257+0.2655046589441273j),
          (-0.15+0j)),
         (0.98598125-0.23500625j),
         (0.9859812499999998-0.23500624999999997j))),
    # the four-stage loop
    "nonaffine": (
        _nonaffine_spec, [0.3, 0.4, 0.5], 0.5, 0.01, 1.0,
        (((0.5960997126920627+0j), (0.05687141501306661+0j), (0.5+0j)),
         (0.2414+0j), (0.24140000003222+0j))),
    # imaginary time, with a partial last step
    "partial_1j": (
        lambda: v_field_spec(7, 3, 5), START_7, 0.0015, 1e-3, 1j,
        (((0.3-0.1j), (0.39929809057723537+0.000143986905660137j),
          (-0.2+0.5j), (-0.0001515161335950144+0.09957544473522192j),
          (0.45-0.05j)),
         (1.0732000000000002-0.030400000000000014j),
         (1.0732-0.030400000000000014j))),
}


@pytest.mark.parametrize("name", FLOWS)
def test_flows_are_pinned(name):
    make, start, t, step, direction, expected = FLOWS[name]
    res = flow_rk4(make(), start, t, step, direction)
    assert (res.end, res.p_start, res.p_end) == expected


def test_compiled_values_are_pinned():
    z = [MultiPoly.variable(3, i) for i in range(3)]
    q = ((ExactComplex(3, 2) / 7) * z[0] ** 3 * z[2]
         - z[1] ** 2 * z[2] ** 4 + ExactComplex(1, -5) * z[0] + 2)
    fn = compile_approx(q)
    assert fn([0.3 - 0.7j, 1.1, -0.4j]) == (
        -1.251890285714286-2.1114285714285717j)
    assert fn([2.5, -1.5 + 0.5j, 0.75]) == (
        8.889508928571429-8.677176339285715j)
    p = v_field_spec(6, 2, 4).p
    assert compile_approx(p)([0.31 - 0.12j, 0.05 + 0.4j, -0.22 + 0.1j,
                              0.37j]) == (1.0781557+0.14176509999999998j)
