"""CLI: problem loading, subcommands, output formats, determinism, exit codes."""

import json
import math
from types import SimpleNamespace

import pytest

from circlelab import arcs, counting, gridsum, localdens
from circlelab.cli import ProblemError, emit, load_problem, run


LINE_PROBLEM = {
    "n": 2,
    "cubic": [[1, 1, 1, 1], [2, 2, 2, 1]],
    "quadric": [[1, 1, 1], [2, 2, -1]],
    "cubic_nonsingular": True,
    "weight": {"x0": [0.0, 0.0], "xi": 0.4},
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_PROBLEM))
    return str(path)


# non-diagonal n = 3 pair; the series output below was produced by scanning
# the full residue grid of every q <= 12, not by the prime-power composition
ND3_PROBLEM = {
    "n": 3,
    "cubic": [[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, -1], [1, 2, 3, 1]],
    "quadric": [[1, 1, 1], [1, 2, 1], [3, 3, -1], [2, 3, 2]],
}

ND3_SERIES_R12 = '''{
  "R": 12,
  "value": 12.409090909090908,
  "imag_residual": 4.0179365985853794e-17,
  "terms": [{
    "q": 1,
    "term": 1
  }, {
    "q": 2,
    "term": 0.5
  }, {
    "q": 3,
    "term": 1.9999999999999996
  }, {
    "q": 4,
    "term": 1
  }, {
    "q": 5,
    "term": 2.8421709430404008e-17
  }, {
    "q": 6,
    "term": 1.0000000000000002
  }, {
    "q": 7,
    "term": -2.0715531654813416e-16
  }, {
    "q": 8,
    "term": 2
  }, {
    "q": 9,
    "term": 2
  }, {
    "q": 10,
    "term": 2.8421709430404008e-17
  }, {
    "q": 11,
    "term": 0.90909090909090906
  }, {
    "q": 12,
    "term": 2
  }],
  "a_of_q": [{
    "q": 1,
    "A": 1
  }, {
    "q": 2,
    "A": 8
  }, {
    "q": 3,
    "A": 61.749015732775078
  }, {
    "q": 4,
    "A": 77.254833995939038
  }, {
    "q": 5,
    "A": 257.7350822324313
  }, {
    "q": 6,
    "A": 493.99212586220062
  }, {
    "q": 7,
    "A": 1217.893295858715
  }, {
    "q": 8,
    "A": 1280
  }, {
    "q": 9,
    "A": 2757.0943098888411
  }, {
    "q": 10,
    "A": 2061.8806578594504
  }, {
    "q": 11,
    "A": 3234.0260401239134
  }, {
    "q": 12,
    "A": 4770.409959848168
  }]
}
'''


@pytest.fixture
def nd3_file(tmp_path):
    path = tmp_path / "nd3.json"
    path.write_text(json.dumps(ND3_PROBLEM))
    return str(path)


# non-diagonal n = 5 pair; the outputs below were captured before the residue
# scans shared one chunked loop.  13^5 = 371 293 residues take two chunks.
N5_PROBLEM = {
    "n": 5,
    "cubic": [[1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1], [4, 4, 4, -1], [5, 5, 5, 2], [1, 2, 3, 1]],
    "quadric": [[1, 1, 1], [2, 2, 1], [3, 3, -1], [4, 4, 1], [5, 5, -1], [1, 2, 1]],
    "cubic_nonsingular": True,
    "weight": {"x0": [0.125, -0.125, 0.0, 0.0625, 0.0], "xi": 0.3},
}

# Level 2 joined this output when levels k >= 2 came to be lifted from
# 13^{5 ceil(k/2)} points: the full scan of 13^10 residues is over the
# default cap.  Its counts match an independent count, over the solutions
# u mod 13, of the solutions v mod 13 of J(u) v = -(C, Q)(u) / 13 by
# elimination mod 13.
N5_LOCAL_P13 = '''{
  "p": 13,
  "kmax": 3,
  "reached": 2,
  "stable": false,
  "level": null,
  "densities": ["2425/2197", "2737/2197"],
  "primitive_densities": ["2424/2197", "2568/2197"],
  "partial": true,
  "solubility": {
    "verdict": "smooth_liftable",
    "point": [2196, 0, 1, 0, 0],
    "level": 3,
    "solutions_mod_p": 2425
  }
}
'''

N5_INFO = '''{
  "n": 5,
  "cubic_monomials": 6,
  "quadric_monomials": 6,
  "quadric_diagonal": false,
  "rank": 5,
  "signature": [3, 2],
  "h": 5,
  "weight": {
    "x0": [0.125, -0.125, 0, 0.0625, 0],
    "xi": 0.29999999999999999
  },
  "center": {
    "cubic_value": -0.000244140625,
    "quadric_value": 0.01953125,
    "jacobian_minor_max": 0.01171875,
    "smooth_zero": false
  },
  "hypotheses": {
    "n": 5,
    "h": 5,
    "rho": 5,
    "signature": [3, 2],
    "large_dim_plane": false,
    "h_rho_product": false,
    "h_rho_min37": false,
    "nonsingular_cubic_product": false,
    "nonsingular_n29": false,
    "large_n49": false,
    "d_plane_padic_max": 0,
    "d_plane_real_max": 1
  },
  "nonsingularity_scan": {
    "2": [0, 0, 0, 0, 1],
    "3": [0, 0, 0, 1, 2],
    "5": null
  }
}
'''

ARCS_GRID3_SEED4 = '''alpha3,alpha2,is_major,q,a3,a2,pigeon_q,pigeon_a3,pigeon_a2
0.31435203519078919,0.17044251760478721,False,,,,35,11,6
0.32541456856923473,0.36027867463186736,False,,,,169,55,61
0.20245194399834321,0.79216219479242422,False,,,,163,33,129
0.60063373566193567,0.058175938714676155,False,,,,5,3,5
0.62387842472921884,0.51464713358783276,False,,,,109,68,56
0.63407169323866286,0.82571784127973535,False,,,,41,26,34
0.81016542590980434,0.26298223918144314,False,,,,79,64,21
0.99471766664370709,0.4565752642174763,False,,,,189,188,86
0.98964428977207819,0.97634212925513975,False,,,,97,96,95
'''


# Captured from the scalar q-scan, before simultaneous_approx screened q in
# numpy blocks.  At P = 50 (above) every pigeonhole q lies in the first block
# of 2^12 moduli; at P = 250, Q3 Q2 = 9444 and two of these 16 points need a
# later block.  The weyl-scan rows carry the same pigeonhole columns; their
# abs_S, t3 and t2 come from the block kernel of weyl_sums (the pair is
# diagonal), within 7.7e-12 relative of the per-point kernel's values.
ARCS_P250_GRID4_SEED4 = '''alpha3,alpha2,is_major,q,a3,a2,pigeon_q,pigeon_a3,pigeon_a2
0.23576402639309191,0.1278318882035904,False,,,,1001,236,128
0.24406092642692603,0.27020900597390052,False,,,,463,113,125
0.15183895799875741,0.59412164609431817,False,,,,843,128,501
0.20047530174645181,0.79363195403600706,False,,,,2524,506,2003
0.46790881854691413,0.13598535019087454,False,,,,1449,678,197
0.47555376992899712,0.36928838095980154,False,,,,225,107,83
0.35762406943235325,0.69723667938608236,False,,,,7273,2601,5071
0.49603824998278034,0.84243144816310722,False,,,,1262,626,1063
0.74223321732905867,0.23225659694135486,False,,,,3251,2413,755
0.54442314644049528,0.40221290421113687,False,,,,2116,1152,851
0.67621618639118564,0.7357009197822918,False,,,,1850,1251,1361
0.66641435424143836,0.78334893886292334,False,,,,5285,3522,4140
0.87446689969634361,0.12340495848902872,False,,,,470,411,58
0.87505654733718652,0.48964557152731181,False,,,,8,7,4
0.83748434995556376,0.55594278669455399,False,,,,1606,1345,893
0.88052175055286197,0.91029273099125707,False,,,,1381,1216,1257
'''

WEYL_SCAN_P60_GRID3 = '''alpha3,alpha2,abs_S,is_major,major_q,pigeon_q,pigeon_a3,pigeon_a2,t3,t2,s,b3,phi3,witness_ok,u,alt
0.21232056244048478,0.089928904587956771,1.8206137846085915,False,,146,31,13,44.467461433001461,44.467461433001461,146,31,-8.2046828028814467e-06,True,,unclassifiable
0.013657841312064897,0.33884254517617635,17.853224259431418,False,,73,1,25,14.200149615789723,14.200149615789723,366,5,-3.3608737274523626e-06,True,,unclassifiable
0.27109007973342414,0.97091852575924065,9.0161291616663792,False,,166,45,161,19.982102761291603,19.982102761291603,166,45,5.7423840265635739e-06,True,,unclassifiable
0.53554525858905999,0.24316552032799946,0.47228520211009595,False,,211,113,51,87.307003175723764,87.307003175723764,211,113,2.3489237754859005e-07,True,,unclassifiable
0.51454166382180766,0.64502414126258945,1.0358310839255978,False,,344,177,222,58.953118134761766,58.953118134761766,447,230,2.7679719916129386e-07,True,,unclassifiable
0.60528451804051076,0.66757950005671596,4.7014188536829336,False,,76,46,51,27.671759728579541,27.671759728579541,38,23,2.1360145773918759e-05,True,1,both
0.95246809219585649,0.011195191768488119,1.1874162183107582,False,,21,20,21,55.06171854795101,55.06171854795101,21,20,8.7139814904158008e-05,True,1,both
0.90988514880998128,0.39188520686751965,17.890567977195342,False,,233,212,91,14.185321596034958,14.185321596034958,344,313,1.4278797487721206e-06,True,,unclassifiable
0.95439297411662893,0.84715374008303057,8.9448561127614425,False,,307,293,260,20.061553991220215,20.061553991220215,307,293,-4.4200201788635596e-06,True,,unclassifiable
'''


# non-diagonal n = 4 pair.  The outputs below were captured from full scans
# mod p^k and mod q, before levels k >= 2 were lifted from the grid mod
# p^ceil(k/2) and before complete sums at composite q were CRT products of
# their prime-power histograms.
N4_PROBLEM = {
    "n": 4,
    "cubic": [[1, 1, 1, 1], [2, 2, 2, -2], [3, 3, 3, 1], [4, 4, 4, 3], [1, 2, 3, 1], [2, 3, 4, -1]],
    "quadric": [[1, 1, 1], [2, 2, -1], [3, 3, 2], [4, 4, -1], [1, 2, 1], [3, 4, 1]],
}

RESIDUE_JOBS = {
    "n4_local_p2_k5": ("n4", ["local", "--p", "2", "--kmax", "5"]),
    "n4_local_p3_k3": ("n4", ["local", "--p", "3", "--kmax", "3"]),
    "n5_local_p2_k4": ("n5", ["local", "--p", "2", "--kmax", "4"]),
    "n4_complete_q30": ("n4", ["sum", "--mode", "complete", "--q", "30", "--a3", "1", "--a2", "7",
                               "--m", "1,0,0,0"]),
    "n5_complete_q15": ("n5", ["sum", "--mode", "complete", "--q", "15", "--a3", "4", "--a2", "2",
                               "--m", "0,1,-1,2,-3"]),
}

RESIDUE_OUTPUTS = {
    "n4_local_p2_k5": '''{
  "p": 2,
  "kmax": 5,
  "reached": 5,
  "stable": true,
  "level": 1,
  "densities": ["1/1", "7/4", "9/4", "13/4", "15/4"],
  "primitive_densities": ["3/4", "3/4", "3/4", "3/4", "3/4"],
  "partial": false,
  "solubility": {
    "verdict": "smooth_liftable",
    "point": [5, 0, 0, 1],
    "level": 3,
    "solutions_mod_p": 4
  }
}
''',
    "n4_local_p3_k3": '''{
  "p": 3,
  "kmax": 3,
  "reached": 3,
  "stable": true,
  "level": 1,
  "densities": ["1/1", "17/9", "35/9"],
  "primitive_densities": ["8/9", "8/9", "8/9"],
  "partial": false,
  "solubility": {
    "verdict": "smooth_liftable",
    "point": [23, 18, 1, 0],
    "level": 3,
    "solutions_mod_p": 9
  }
}
''',
    "n5_local_p2_k4": '''{
  "p": 2,
  "kmax": 4,
  "reached": 4,
  "stable": false,
  "level": null,
  "densities": ["1/1", "13/8", "19/8", "43/16"],
  "primitive_densities": ["7/8", "9/8", "11/8", "23/16"],
  "partial": false,
  "solubility": {
    "verdict": "smooth_liftable",
    "point": [7, 0, 1, 0, 0],
    "level": 3,
    "solutions_mod_p": 8
  }
}
''',
    "n4_complete_q30": '''{
  "re": 1625.6545755762352,
  "im": -45.801136997173423,
  "abs": 1626.2996474334559,
  "meta": {
    "mode": "complete",
    "q": 30,
    "a3": 1,
    "a2": 7,
    "m": [1, 0, 0, 0]
  }
}
''',
    "n5_complete_q15": '''{
  "re": -107.58321016516359,
  "im": -241.63584628543873,
  "abs": 264.50336353158525,
  "meta": {
    "mode": "complete",
    "q": 15,
    "a3": 4,
    "a2": 2,
    "m": [0, 1, -1, 2, -3]
  }
}
''',
}


@pytest.fixture
def n5_file(tmp_path):
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(N5_PROBLEM))
    return str(path)


# ND3 and ND3 without its cubic or without its quadric (a form with no
# monomials evaluates to the scalar 0) through every command that evaluates
# the forms on numpy grids: the integrand of J(R), the oscillatory integral,
# the direct Weyl sum (int64 grid) and the Poisson reconstruction.  The
# outputs below, and the count outputs after them, were captured before the
# float evaluator was folded into forms.eval_cubic/eval_quadratic, before the
# Poisson phase grid went through gridsum.scan and before count summed N(P)
# from its own box enumeration.  The three Poisson outputs were captured
# again, within 4 ulp of the first capture, when the m-family of integrals
# moved to the slab-streamed grid contraction (a different summation order).
# The three direct-sum outputs were captured again when the direct sum
# moved to one kernel over chunks of the support ball (cos and sin summed
# per chunk, not exp per x0-slice): re, im and abs moved by at most
# 4.5e-15 times |S|.
EVAL_PROBLEMS = {
    "nd3": ND3_PROBLEM,
    "nocubic": {**ND3_PROBLEM, "cubic": []},
    "noquadric": {**ND3_PROBLEM, "quadric": []},
}

EVAL_JOBS = {
    "integral": ["integral", "--R", "1", "--tol", "1e-6"],
    "osc": ["sum", "--mode", "integral", "--gamma3", "1.5", "--gamma2", "1", "--z", "1,-1,0",
            "--tol", "1e-6"],
    "direct": ["sum", "--mode", "direct", "--P", "12", "--alpha3", "0.31", "--alpha2", "0.57"],
    "poisson": ["sum", "--mode", "poisson", "--P", "6", "--q", "3", "--a3", "1", "--a2", "2",
                "--theta3", "1e-3", "--theta2=-2e-3", "--M", "2"],
}

EVAL_OUTPUTS = {
    ("nd3", "integral"): '''{
  "R": 1,
  "value": 0.11109749633364616,
  "error": 2.4965693984357884e-07,
  "level": 6
}
''',
    ("nd3", "osc"): '''{
  "re": 0.011920691896271365,
  "im": 0.00034113719366968005,
  "abs": 0.011925572098257366,
  "meta": {
    "mode": "integral",
    "gamma3": 1.5,
    "gamma2": 1,
    "z": [1, -1, 0],
    "quad_error": 2.953555188875014e-08,
    "quad_level": 6
  }
}
''',
    ("nd3", "direct"): '''{
  "re": 1.4150423053115202,
  "im": 2.5131881524795627,
  "abs": 2.8841739572336791,
  "meta": {
    "mode": "direct",
    "P": 12,
    "alpha3": 0.31,
    "alpha2": 0.56999999999999995
  }
}
''',
    ("nd3", "poisson"): '''{
  "re": 1.1410273883958841,
  "im": 0.90022626663421135,
  "abs": 1.4533928691884044,
  "meta": {
    "mode": "poisson",
    "P": 6,
    "q": 3,
    "a3": 1,
    "a2": 2,
    "theta3": 0.001,
    "theta2": -0.002,
    "M": 2,
    "theta_height": 1.288
  }
}
''',
    ("nocubic", "integral"): '''{
  "R": 1,
  "value": 0.11128351511839452,
  "error": 2.603924357802434e-07,
  "level": 6
}
''',
    ("nocubic", "osc"): '''{
  "re": 0.012524356920294532,
  "im": 7.1479726636493842e-06,
  "abs": 0.0125243589600603,
  "meta": {
    "mode": "integral",
    "gamma3": 1.5,
    "gamma2": 1,
    "z": [1, -1, 0],
    "quad_error": 3.7934412535094489e-08,
    "quad_level": 6
  }
}
''',
    ("nocubic", "direct"): '''{
  "re": -0.75838525560779324,
  "im": -0.70452178296829115,
  "abs": 1.0351324256345744,
  "meta": {
    "mode": "direct",
    "P": 12,
    "alpha3": 0.31,
    "alpha2": 0.56999999999999995
  }
}
''',
    ("nocubic", "poisson"): '''{
  "re": 1.955621642156701,
  "im": 0.023367657650526973,
  "abs": 1.9557612468539569,
  "meta": {
    "mode": "poisson",
    "P": 6,
    "q": 3,
    "a3": 1,
    "a2": 2,
    "theta3": 0.001,
    "theta2": -0.002,
    "M": 2,
    "theta_height": 1.288
  }
}
''',
    ("noquadric", "integral"): '''{
  "R": 1,
  "value": 0.11270522980789045,
  "error": 8.1604367176135728e-07,
  "level": 4
}
''',
    ("noquadric", "osc"): '''{
  "re": 0.012357033186511239,
  "im": 5.1669009782512321e-20,
  "abs": 0.012357033186511239,
  "meta": {
    "mode": "integral",
    "gamma3": 1.5,
    "gamma2": 1,
    "z": [1, -1, 0],
    "quad_error": 1.0396150825625616e-08,
    "quad_level": 6
  }
}
''',
    ("noquadric", "direct"): '''{
  "re": -0.23106094687272027,
  "im": -2.8134199343051586e-16,
  "abs": 0.23106094687272027,
  "meta": {
    "mode": "direct",
    "P": 12,
    "alpha3": 0.31,
    "alpha2": 0.56999999999999995
  }
}
''',
    ("noquadric", "poisson"): '''{
  "re": 0.57566786377282619,
  "im": 4.7558928581524636e-16,
  "abs": 0.57566786377282619,
  "meta": {
    "mode": "poisson",
    "P": 6,
    "q": 3,
    "a3": 1,
    "a2": 2,
    "theta3": 0.001,
    "theta2": -0.002,
    "M": 2,
    "theta_height": 1.288
  }
}
''',
}

ND3_COUNT_P20 = '''{
  "P": 20,
  "weighted_count": 2.5069541904547883,
  "box": ["-8:8", "-8:8", "-8:8"],
  "box_count": 17
}
'''

ND3_COUNT_P20_BOX3 = '''{
  "P": 20,
  "weighted_count": 2.5069541904547883,
  "box": ["-3:3", "-3:3", "-3:3"],
  "box_count": 7
}
'''

ND3_SOLUTIONS_BOX3 = '''x1,x2,x3
-3,0,-3
-2,0,-2
-1,0,-1
0,0,0
1,0,1
2,0,2
3,0,3
'''

LINE_COUNT_P32 = '''{
  "P": 32,
  "weighted_count": 4.018001039974255,
  "box": ["-12:12", "-12:12"],
  "box_count": 25
}
'''


def run_to_file(tmp_path, argv):
    out = tmp_path / "out.txt"
    code = run(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# ------------------------------------------------------------------ loading

def test_load_problem_valid(problem_file):
    pair, weight = load_problem(problem_file)
    assert pair.n == 2
    assert pair.cubic_nonsingular is True
    assert weight.xi == 0.4


def test_load_problem_defaults(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 1, "cubic": [[1, 1, 1, 1]], "quadric": [[1, 1, 1]]}))
    pair, weight = load_problem(str(path))
    assert weight.center == (0.0,) and weight.xi == 0.4


def test_load_problem_index_violations(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "cubic": [[1, 1, 3, 1], [2, 1, 2, 1]],
                "quadric": [[2, 1, 1]],
                "bogus": 1,
            }
        )
    )
    with pytest.raises(ProblemError) as info:
        load_problem(str(path))
    text = str(info.value)
    # every violation is reported, not just the first
    assert "unknown key" in text
    assert "1 <= i <= j <= k" in text
    assert "1 <= i <= j" in text


def test_every_violation_is_reported_without_traceback(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": "x",
        "cubic": 5,
        "quadric": [[1, 1, True], [1, 2]],
        "h": True,
        "weight": {"x0": [0.0, "a"], "xi": 2},
        "bogus": 1,
    }))
    assert run(["info", "--problem", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "error: unknown key 'bogus'",
        "error: 'n' must be a positive integer",
        "error: 'cubic' must be a list of [i, j, k, coeff] entries",
        "error: quadric entry [1, 1, true] must be integers",
        "error: quadric entry [1, 2] must be [i, j, coeff]",
        "error: 'h' must be a positive integer",
        "error: 'weight.x0' must be a list of n reals",
        "error: 'weight.xi' must be a real in (0, 1]",
    ]
    path.write_text(json.dumps({"n": [3], "cubic": [[1, 1, 1, 1]]}))
    assert run(["info", "--problem", str(path)]) == 2
    assert capsys.readouterr().err == "error: 'n' must be a positive integer\n"


def test_malformed_json_exit(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,,}')
    code = run(["info", "--problem", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_flag_exit(problem_file):
    assert run(["info", "--problem", problem_file, "--nonsense"]) == 2


def test_missing_subcommand_exit():
    assert run([]) == 2


# -------------------------------------------------------------- subcommands

def test_info(problem_file, tmp_path):
    code, text = run_to_file(tmp_path, ["info", "--problem", problem_file])
    assert code == 0
    rep = json.loads(text)
    assert rep["n"] == 2
    assert rep["rank"] == 2
    assert rep["signature"] == [1, 1]
    assert rep["h"] == 2
    assert rep["hypotheses"]["nonsingular_n29"] is False


def test_count_and_emit(problem_file, tmp_path):
    csv_path = tmp_path / "solutions.csv"
    code, text = run_to_file(
        tmp_path,
        ["count", "--problem", problem_file, "--P", "8", "--box=-3:3,-3:3",
         "--emit", str(csv_path)],
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["box_count"] == 7
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 8


def test_sum_modes(problem_file, tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["sum", "--problem", problem_file, "--mode", "complete",
         "--q", "3", "--a3", "1", "--a2", "1"],
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["abs"] == pytest.approx(3.0, abs=1e-9)

    code, text = run_to_file(
        tmp_path,
        ["sum", "--problem", problem_file, "--mode", "crt",
         "--q", "6", "--a3", "1", "--a2", "1", "--m", "1,0"],
    )
    assert code == 0
    rep = json.loads(text)
    assert len(rep["meta"]["factors"]) == 2

    code, text = run_to_file(
        tmp_path,
        ["sum", "--problem", problem_file, "--mode", "direct",
         "--P", "8", "--alpha3", "0.2", "--alpha2", "0.7"],
    )
    assert code == 0

    code, text = run_to_file(
        tmp_path,
        ["sum", "--problem", problem_file, "--mode", "integral",
         "--gamma3", "1.0", "--gamma2", "0.5"],
    )
    assert code == 0
    assert json.loads(text)["meta"]["quad_level"] >= 3

    code, text = run_to_file(
        tmp_path,
        ["sum", "--problem", problem_file, "--mode", "poisson",
         "--P", "8", "--q", "2", "--a3", "1", "--a2", "1",
         "--theta3", "1e-4", "--M", "16"],
    )
    assert code == 0
    assert json.loads(text)["meta"]["M"] == 16


def test_sum_missing_flags(problem_file):
    assert run(["sum", "--problem", problem_file, "--mode", "direct"]) == 2


def test_arcs_point_and_grid(tmp_path):
    code, text = run_to_file(
        tmp_path, ["arcs", "--P", "100", "--alpha3", "0.999999", "--alpha2", "0.000001"]
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["is_major"] is True and rep["witness"] == [1, 1, 1]

    code, text = run_to_file(tmp_path, ["arcs", "--P", "50", "--grid", "3", "--seed", "4"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:3] == ["alpha3", "alpha2", "is_major"]
    assert len(lines) == 10


def test_series_local_qfactor(problem_file, tmp_path):
    code, text = run_to_file(tmp_path, ["series", "--problem", problem_file, "--R", "3"])
    assert code == 0
    rep = json.loads(text)
    assert rep["terms"][0] == {"q": 1, "term": 1}

    code, text = run_to_file(
        tmp_path, ["local", "--problem", problem_file, "--p", "3", "--kmax", "2"]
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["p"] == 3 and len(rep["densities"]) == 2

    code, text = run_to_file(
        tmp_path, ["qfactor", "--problem", problem_file, "--q", "24", "--a3", "4"]
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["q0"] * rep["q1"] * rep["q2"] == 24


def test_integral_predict_compare(problem_file, tmp_path):
    code, text = run_to_file(
        tmp_path, ["integral", "--problem", problem_file, "--R", "2"]
    )
    assert code == 0
    assert json.loads(text)["value"] != 0

    code, text = run_to_file(
        tmp_path,
        ["predict", "--problem", problem_file, "--Rq", "2", "--Rgamma", "2", "--P", "8"],
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["prediction"] == pytest.approx(
        rep["sing_series"] * rep["sing_integral"] * 8.0 ** (2 - 5), rel=1e-12
    )

    code, text = run_to_file(
        tmp_path,
        ["compare", "--problem", problem_file, "--P", "8,16", "--Rq", "2", "--Rgamma", "2"],
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "P,N,prediction,ratio"
    assert len(lines) == 3


def test_weyl_scan_and_nr(problem_file, tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["weyl-scan", "--problem", problem_file, "--P", "8", "--grid", "2"],
    )
    assert code == 0
    assert len(text.strip().splitlines()) == 5

    code, text = run_to_file(tmp_path, ["nr", "--problem", problem_file, "--R", "5"])
    assert code == 0
    assert json.loads(text)["n_R"] == 17 * 17  # product over two axes


def test_cap_exit_code(problem_file, tmp_path):
    code = run(
        ["sum", "--problem", problem_file, "--mode", "complete",
         "--q", "101", "--a3", "1", "--a2", "1", "--cap", "100"]
    )
    assert code == 3


def test_env_cap_overrides_flag(problem_file, monkeypatch):
    monkeypatch.setenv("CIRCLELAB_CAP", "100")
    code = run(
        ["sum", "--problem", problem_file, "--mode", "complete",
         "--q", "101", "--a3", "1", "--a2", "1", "--cap", "10000000"]
    )
    assert code == 3


def test_env_cap_must_be_an_integer(problem_file, monkeypatch, capsys):
    monkeypatch.setenv("CIRCLELAB_CAP", "abc")
    assert run(["series", "--problem", problem_file, "--R", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: CIRCLELAB_CAP")


# 223092870 = 2 * 3 * ... * 23 and 6469693230 = 223092870 * 29 cost only
# sum p^2 < 3000 points at n = 2, but a histogram mod q has q cells, over the
# default cap; (2^89 - 1)(2^107 - 1) would keep rho busy for hours.  Each is
# refused before q is factorized.
@pytest.mark.parametrize("q", [223092870, 6469693230, (2**89 - 1) * (2**107 - 1)])
def test_complete_sum_charges_its_histogram_first(problem_file, capsys, monkeypatch, q):
    def factorize(q):
        raise AssertionError(f"factorized {q}")

    monkeypatch.setattr(gridsum, "factorize", factorize)
    _assert_internal_failure(
        ["sum", "--problem", problem_file, "--mode", "complete", "--q", str(q), "--a3", "1", "--a2", "1"],
        capsys, f"histogram mod {q} of {q}^1 cells: {q} elements exceeds cap 100000000",
    )


def test_series_cap_charges_prime_power_scans(nd3_file, tmp_path):
    # sum_{q <= 12} q^3 = 6084 > cap >= sum_{p^e <= 12} p^{3 ceil(e/2)} = 1933
    code, text = run_to_file(
        tmp_path, ["series", "--problem", nd3_file, "--R", "12", "--cap", "5000"]
    )
    assert code == 0
    assert text == ND3_SERIES_R12


def test_series_output_is_unchanged(nd3_file, tmp_path):
    for threads in ("1", "2"):
        code, text = run_to_file(
            tmp_path, ["series", "--problem", nd3_file, "--R", "12", "--threads", threads]
        )
        assert code == 0
        assert text == ND3_SERIES_R12, threads


def test_local_output_is_unchanged(n5_file, tmp_path):
    for threads in ("1", "2"):
        code, text = run_to_file(tmp_path, [
            "local", "--problem", n5_file, "--p", "13", "--kmax", "3", "--threads", threads,
        ])
        assert code == 0
        assert text == N5_LOCAL_P13, threads


@pytest.mark.parametrize("job", list(RESIDUE_JOBS))
def test_lifted_and_crt_outputs_are_unchanged(tmp_path, job):
    name, argv = RESIDUE_JOBS[job]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"n4": N4_PROBLEM, "n5": N5_PROBLEM}[name]))
    argv = argv[:1] + ["--problem", str(path)] + argv[1:]
    assert run_to_file(tmp_path, argv) == (0, RESIDUE_OUTPUTS[job])


def test_info_and_arcs_grid_output_is_unchanged(n5_file, tmp_path):
    assert run_to_file(tmp_path, ["info", "--problem", n5_file]) == (0, N5_INFO)
    argv = ["arcs", "--P", "50", "--grid", "3", "--seed", "4"]
    assert run_to_file(tmp_path, argv) == (0, ARCS_GRID3_SEED4)


def test_pigeonhole_outputs_are_unchanged(problem_file, tmp_path):
    argv = ["arcs", "--P", "250", "--grid", "4", "--seed", "4"]
    assert run_to_file(tmp_path, argv) == (0, ARCS_P250_GRID4_SEED4)
    argv = ["weyl-scan", "--problem", problem_file, "--P", "60", "--grid", "3"]
    assert run_to_file(tmp_path, argv) == (0, WEYL_SCAN_P60_GRID3)


@pytest.mark.parametrize("name,job", list(EVAL_OUTPUTS))
def test_form_evaluation_outputs_are_unchanged(tmp_path, name, job):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(EVAL_PROBLEMS[name]))
    argv = EVAL_JOBS[job][:1] + ["--problem", str(path)] + EVAL_JOBS[job][1:]
    assert run_to_file(tmp_path, argv) == (0, EVAL_OUTPUTS[name, job])


def test_count_output_is_unchanged(nd3_file, problem_file, tmp_path):
    argv = ["count", "--problem", nd3_file, "--P", "20"]
    assert run_to_file(tmp_path, argv) == (0, ND3_COUNT_P20)
    argv = ["count", "--problem", problem_file, "--P", "32"]
    assert run_to_file(tmp_path, argv) == (0, LINE_COUNT_P32)
    csv_path = tmp_path / "solutions.csv"
    argv = ["count", "--problem", nd3_file, "--P", "20", "--box=-3:3,-3:3,-3:3",
            "--emit", str(csv_path)]
    assert run_to_file(tmp_path, argv) == (0, ND3_COUNT_P20_BOX3)
    assert csv_path.read_text() == ND3_SOLUTIONS_BOX3


def test_count_enumerates_its_box_once(problem_file, tmp_path, monkeypatch):
    boxes = []
    enumerate_solutions = counting.enumerate_solutions

    def counted(pair, box, *args, **kwargs):
        boxes.append(box)
        return enumerate_solutions(pair, box, *args, **kwargs)

    monkeypatch.setattr(counting, "enumerate_solutions", counted)
    assert run_to_file(tmp_path, ["count", "--problem", problem_file, "--P", "32"])[0] == 0
    assert boxes == [[(-12, 12), (-12, 12)]]


@pytest.fixture
def nd3_linear_file(tmp_path):
    """ND3 without its x3^2 term: Q is linear in x3."""
    path = tmp_path / "nd3_linear.json"
    path.write_text(json.dumps({**ND3_PROBLEM, "quadric": [[1, 1, 1], [1, 2, 1], [2, 3, 2]]}))
    return str(path)


# count --P 16 on the line problem visits the 13 values of x1 in [-6, 6];
# count --P 20 on ND3 (x3^2 coefficient -1) the 17^2 prefixes of [-8, 8]^3,
# and without its x3^2 term the whole box; compare --P 2000,4000 charges
# each box on its own: 1601, then 3201 points, more than the 33^2 grid of
# its quadrature at tol 1e-4.  A direct Weyl sum charges its whole
# box: 41^3 points for ND3 at P = 50, 13^2 for each point of a weyl-scan
# of the line problem at P = 16.
@pytest.mark.parametrize("problem,argv,points", [
    ("problem_file", ["count", "--P", "16"], 13),
    ("problem_file", ["count", "--P", "16", "--box=-1:1,-1:1"], 13),
    ("nd3_file", ["count", "--P", "20"], 17**2),
    ("problem_file", ["compare", "--P", "2000,4000", "--Rq", "2", "--Rgamma", "1", "--tol", "1e-4"],
     3201),
    ("nd3_linear_file", ["count", "--P", "20"], 17**3),
    ("nd3_file", ["sum", "--mode", "direct", "--P", "50", "--alpha3", "0.1", "--alpha2", "0.2"],
     41**3),
    ("problem_file", ["weyl-scan", "--P", "16", "--grid", "2"], 13**2),
])
def test_box_scans_honour_the_cap(request, capsys, problem, argv, points):
    argv = argv[:1] + ["--problem", request.getfixturevalue(problem)] + argv[1:]
    assert run(argv + ["--cap", str(points)]) == 0
    capsys.readouterr()
    assert run(argv + ["--cap", str(points - 1)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: lattice box: {points} elements exceeds cap {points - 1}\n"


# nr --R 10 on the diagonal cubic x1^3 + x2^3 + x3^3 charges its 19^3
# x-range, then one 19^3 y-scan for each of the 3 distinct kernels of rank
# one, the coordinate planes of the x on an axis.
@pytest.mark.parametrize("cap,code,message", [
    (19**3 - 1, 3, "error: bilinear count x-range: 6859 elements exceeds cap 6858\n"),
    (3 * 19**3 - 1, 3, "error: bilinear count y-scan: 20577 elements exceeds cap 20576\n"),
    (3 * 19**3, 0, ""),
])
def test_nr_honours_the_cap(tmp_path, capsys, cap, code, message):
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({
        "n": 3,
        "cubic": [[1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1]],
        "quadric": [[1, 1, 1], [2, 2, -1]],
    }))
    assert run(["nr", "--problem", str(path), "--R", "10", "--cap", str(cap)]) == code
    out, err = capsys.readouterr()
    assert err == message
    if code == 0:
        assert json.loads(out) == {"R": 10, "n_R": 50653}


# The tensor quadrature charges each level's (2^level + 1)^n grid to the
# cap, and sum --mode poisson each of its refinement grids; on the line
# problem the last grid is the largest charge of each job: level 7 for
# J(1) (also inside predict and compare), level 6 for I(gamma; z), and
# the Poisson grid refined from 64 to 256 intervals.
QUAD_CAP = "quadrature grid {side}^2 exceeds point cap {cap}"
POISSON_CAP = "poisson quadrature grid {side}^2: {points} elements exceeds cap {cap}"


@pytest.mark.parametrize("argv,side,message", [
    (["integral", "--R", "1", "--tol", "1e-6"], 129, QUAD_CAP),
    (["sum", "--mode", "integral", "--gamma3", "1.5", "--gamma2", "1", "--z", "1,-1",
      "--tol", "1e-6"], 65, QUAD_CAP),
    (["sum", "--mode", "poisson", "--P", "8", "--q", "2", "--a3", "1", "--a2", "1",
      "--theta3", "1e-4", "--M", "4"], 257, POISSON_CAP),
    (["predict", "--Rq", "2", "--Rgamma", "1", "--P", "16", "--tol", "1e-6"], 129, QUAD_CAP),
    (["compare", "--P", "8,16", "--Rq", "2", "--Rgamma", "1", "--tol", "1e-6"], 129, QUAD_CAP),
], ids=["integral", "sum-integral", "sum-poisson", "predict", "compare"])
def test_quadrature_grids_honour_the_cap(problem_file, capsys, argv, side, message):
    argv = argv[:1] + ["--problem", problem_file] + argv[1:]
    points = side**2
    assert run(argv + ["--cap", str(points)]) == 0
    capsys.readouterr()
    assert run(argv + ["--cap", str(points - 1)]) == 3
    err = capsys.readouterr().err
    assert err == "error: " + message.format(side=side, points=points, cap=points - 1) + "\n"


def test_integral_runs_in_five_dimensions(tmp_path):
    path = tmp_path / "d5.json"
    path.write_text(json.dumps({
        "n": 5,
        "cubic": [[i, i, i, (-1) ** i] for i in range(1, 6)],
        "quadric": [[1, 1, 1], [2, 2, 1], [3, 3, -1], [4, 4, -1], [5, 5, -1]],
    }))
    code, text = run_to_file(tmp_path, ["integral", "--problem", str(path), "--R", "1",
                                        "--tol", "1e-4"])
    assert code == 0
    out = json.loads(text)
    assert out["error"] <= 1e-4 and out["value"] > 0


def test_arcs_grid_honours_the_cap(tmp_path, capsys):
    argv = ["arcs", "--P", "50", "--grid", "3", "--seed", "4"]
    assert run_to_file(tmp_path, argv + ["--cap", "9"]) == (0, ARCS_GRID3_SEED4)
    assert run(argv + ["--cap", "8"]) == 3
    assert capsys.readouterr().err == "error: grid 3^2: 9 elements exceeds cap 8\n"


@pytest.mark.parametrize("k", ["-3", "0"])
@pytest.mark.parametrize("command", ["arcs", "weyl-scan"])
def test_grid_must_be_positive(problem_file, capsys, command, k):
    argv = [command, "--P", "50", f"--grid={k}"]
    if command == "weyl-scan":
        argv[1:1] = ["--problem", problem_file]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: grid must be a positive integer, got {k}\n")


def test_info_reports_skipped_primes(problem_file, tmp_path):
    _, text = run_to_file(tmp_path, ["info", "--problem", problem_file])
    assert "nonsingularity_skipped" not in json.loads(text)
    # diagonal nonsingular cubic in 12 variables: 5^12 exceeds the default
    # cap, so only p = 2 is scanned
    n = 12
    path = tmp_path / "n12.json"
    path.write_text(json.dumps({
        "n": n,
        "cubic": [[i, i, i, 1] for i in range(1, n + 1)],
        "quadric": [[i, i, (-1) ** i] for i in range(1, n + 1)],
        "cubic_nonsingular": True,
        "weight": {"x0": [0.0] * n, "xi": 0.4},
    }))
    code, text = run_to_file(tmp_path, ["info", "--problem", str(path)])
    assert code == 0
    rep = json.loads(text)
    assert rep["nonsingularity_scan"] == {"2": None}
    assert rep["nonsingularity_skipped"] == [5]


@pytest.mark.parametrize("cubic, scan", [
    # the mixed monomial x1 x2 x3 keeps grad C nonzero mod 3, and no nonzero
    # point mod 3 is singular
    ([[1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1], [1, 2, 3, 1]],
     {"2": [1, 1, 1], "3": None, "5": None}),
    # with coefficient 3 on x1 x2 x3, grad C vanishes identically mod 3 (every
    # zero there is singular, (0, 1, 2) first), so p = 3 is not scanned
    ([[1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1], [1, 2, 3, 3]], {"2": [1, 1, 1], "5": None}),
], ids=["mixed", "cubes-mod-3"])
def test_info_scans_mod_3_unless_grad_vanishes(tmp_path, cubic, scan):
    path = tmp_path / "n3.json"
    path.write_text(json.dumps({
        "n": 3,
        "cubic": cubic,
        "quadric": [[1, 1, 1], [2, 2, 1], [3, 3, -1]],
        "cubic_nonsingular": True,
        "weight": {"x0": [0.0] * 3, "xi": 0.4},
    }))
    code, text = run_to_file(tmp_path, ["info", "--problem", str(path)])
    assert code == 0
    assert json.loads(text)["nonsingularity_scan"] == scan


def test_direct_sum_refuses_int64_overflow(tmp_path, capsys):
    # P = 50 and xi = 0.4 give the box [-20, 20]^2, on which a cubic
    # coefficient of 2^50 alone bounds C by 2^50 * 20^3 > 2^62
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(LINE_PROBLEM, cubic=[[1, 1, 1, 2**50], [2, 2, 2, 1]])))
    argv = ["sum", "--problem", str(path), "--mode", "direct", "--P", "50",
            "--alpha3", "0.1", "--alpha2", "0.2"]
    assert run(argv) == 3
    bound = 2**50 * 20**3 + 20**3 + 2 * 20**2
    assert capsys.readouterr().err == (
        f"error: lattice box too large for int64-exact form evaluation (bound {bound})\n"
    )


@pytest.mark.parametrize("argv", [
    ["count", "--P", "inf"],
    ["count", "--P", "nan"],
    ["sum", "--mode", "direct", "--P", "inf", "--alpha3", "0.1", "--alpha2", "0.2"],
    ["sum", "--mode", "integral", "--z", "0,nan"],
    ["compare", "--P", "8,inf", "--Rq", "2", "--Rgamma", "2"],
    ["weyl-scan", "--P=-inf", "--grid", "2"],
    ["integral", "--R", "nan"],
    ["count", "--P", "16", "--tol", "inf"],
    ["arcs", "--P", "inf", "--alpha3", "0.1", "--alpha2", "0.2"],
])
def test_non_finite_sizes_are_usage_errors(problem_file, capsys, argv):
    if argv[0] != "arcs":
        argv = argv[:1] + ["--problem", problem_file] + argv[1:]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


# 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
# 999999999999987 = 3 * 333333333333329
@pytest.mark.parametrize("p", ["1", "4", "9", "3215031751", "999999999999987"])
def test_local_needs_a_prime(problem_file, capsys, p):
    assert run(["local", "--problem", problem_file, "--p", p, "--kmax", "2"]) == 2
    assert capsys.readouterr().err == f"error: p must be a prime, got {p}\n"


def test_local_accepts_a_large_prime_at_once(problem_file, tmp_path):
    # residues mod p^2 overflow int64 (and the grid p^2 is over the cap),
    # so the report is partial; the primality test takes microseconds where
    # trial division took seconds
    code, text = run_to_file(tmp_path, [
        "local", "--problem", problem_file, "--p", "999999999999989", "--kmax", "1",
    ])
    assert code == 0
    report = json.loads(text)
    assert report["partial"] and report["reached"] == 0


def test_local_refuses_a_prime_whose_square_overflows(tmp_path):
    # at n = 1 the grid mod p fits under a cap of p, but the lift to p^2
    # needs residues mod p^2 >= 2^62, so the report is partial at level 0
    path = tmp_path / "n1.json"
    path.write_text(json.dumps({"n": 1, "cubic": [[1, 1, 1, 1]], "quadric": [[1, 1, 1]]}))
    p = 2**31 + 11
    code, text = run_to_file(tmp_path, [
        "local", "--problem", str(path), "--p", str(p), "--kmax", "1", "--cap", str(p),
    ])
    assert code == 0
    report = json.loads(text)
    assert report["partial"] and report["reached"] == 0
    assert report["solubility"]["verdict"] == "none_found"


@pytest.mark.parametrize("argv", [
    ["series", "--R", "0"],
    ["series", "--R", "-3"],
    ["predict", "--Rq", "0", "--Rgamma", "2", "--P", "8"],
    ["compare", "--P", "8", "--Rq", "0", "--Rgamma", "2"],
])
def test_series_needs_a_positive_truncation(problem_file, capsys, argv):
    assert run(argv[:1] + ["--problem", problem_file] + argv[1:]) == 2
    assert capsys.readouterr() == ("", "error: R must be a positive integer\n")


@pytest.mark.parametrize("mode", ["complete", "crt"])
def test_crt_sum_charges_all_prime_powers_together(problem_file, capsys, mode):
    # at n = 2, q = 63 = 7 * 9 scans 7^2 + 9^2 = 130 points: each prime
    # power fits under a cap of 100, but the two together do not
    argv = ["sum", "--problem", problem_file, "--mode", mode,
            "--q", "63", "--a3", "1", "--a2", "1", "--cap", "100"]
    assert run(argv) == 3
    assert capsys.readouterr() == (
        "", "error: residue grids mod 2 prime powers: 130 elements exceeds cap 100\n"
    )


# ------------------------------------------------- internal checks, exit 3

def _assert_internal_failure(argv, capsys, message):
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_series_imaginary_mass_exit(problem_file, monkeypatch, capsys):
    sums = localdens._complete_sums
    monkeypatch.setattr(localdens, "_complete_sums", lambda hist: sums(hist) + 1e-3j)
    argv = ["series", "--problem", problem_file, "--R", "3"]
    _assert_internal_failure(argv, capsys, "imaginary mass")


@pytest.fixture
def smooth5_file(tmp_path):
    """A pair with the smooth zero (1, -1, 0) mod 5."""
    path = tmp_path / "smooth5.json"
    path.write_text(json.dumps({
        "n": 3,
        "cubic": [[1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1]],
        "quadric": [[1, 1, 1], [2, 2, -1], [2, 3, 1]],
    }))
    return str(path)


def test_hensel_lift_check_exit(smooth5_file, monkeypatch, capsys):
    # a cubic that never vanishes breaks the lift
    monkeypatch.setattr(localdens, "eval_cubic", lambda cubic, x: 1)
    argv = ["local", "--problem", smooth5_file, "--p", "5", "--kmax", "2"]
    _assert_internal_failure(argv, capsys, "Hensel lift")


def test_local_scans_each_level_once(smooth5_file, tmp_path, monkeypatch):
    # level k >= 2 is lifted from the grid mod p^ceil(k/2), and level 1 and
    # the certificate are read off the lift to level 2: local scans mod 5
    # and 25 once each; localdens reaches no scan but through the lift
    assert not hasattr(localdens, "scan")
    moduli = []

    def counting_scan(pair, q, *args, **kwargs):
        moduli.append(q)
        return scan(pair, q, *args, **kwargs)

    scan = gridsum.scan
    monkeypatch.setattr(gridsum, "scan", counting_scan)
    code, text = run_to_file(
        tmp_path, ["local", "--problem", smooth5_file, "--p", "5", "--kmax", "3"]
    )
    assert code == 0
    assert moduli == [5, 25]
    assert json.loads(text)["solubility"]["verdict"] == "smooth_liftable"


def test_simultaneous_approx_gcd_check_exit(monkeypatch, capsys):
    monkeypatch.setattr(arcs, "math", SimpleNamespace(floor=math.floor, gcd=lambda a, b: 2))
    argv = ["arcs", "--P", "50", "--alpha3", "0.3", "--alpha2", "0.7"]
    _assert_internal_failure(argv, capsys, "unreduced fraction")


def test_simultaneous_approx_pigeonhole_check_exit(monkeypatch, capsys):
    monkeypatch.setattr(arcs, "_exact_torus_bound", lambda alpha, a, q, bound: False)
    argv = ["arcs", "--P", "50", "--alpha3", "0.3", "--alpha2", "0.7"]
    _assert_internal_failure(argv, capsys, "pigeonhole")


# ------------------------------------------------------------- output rules

def test_byte_identical_repeat(problem_file, tmp_path):
    _, text_a = run_to_file(tmp_path, ["info", "--problem", problem_file])
    _, text_b = run_to_file(tmp_path, ["info", "--problem", problem_file])
    assert text_a == text_b


def test_threads_do_not_change_output(problem_file, tmp_path):
    argv = ["compare", "--problem", problem_file, "--P", "8,16,32",
            "--Rq", "3", "--Rgamma", "2"]
    _, text_1 = run_to_file(tmp_path, argv + ["--threads", "1"])
    _, text_4 = run_to_file(tmp_path, argv + ["--threads", "4"])
    assert text_1 == text_4


@pytest.mark.parametrize("argv", [
    ["integral", "--R", "1", "--tol", "1e-6"],
    ["sum", "--mode", "integral", "--gamma3", "1.5", "--gamma2", "1", "--z", "1,-1,0.5",
     "--tol", "1e-6"],
], ids=["integral", "sum-integral"])
def test_quadrature_output_does_not_depend_on_threads(nd3_file, tmp_path, argv):
    argv = argv[:1] + ["--problem", nd3_file] + argv[1:]
    code_1, text_1 = run_to_file(tmp_path, argv + ["--threads", "1"])
    code_2, text_2 = run_to_file(tmp_path, argv + ["--threads", "2"])
    assert code_1 == code_2 == 0
    assert text_1 == text_2


def test_seed_controls_grids(tmp_path):
    _, a = run_to_file(tmp_path, ["arcs", "--P", "50", "--grid", "2", "--seed", "1"])
    _, b = run_to_file(tmp_path, ["arcs", "--P", "50", "--grid", "2", "--seed", "1"])
    _, c = run_to_file(tmp_path, ["arcs", "--P", "50", "--grid", "2", "--seed", "2"])
    assert a == b
    assert a != c


def test_json_round_trip(tmp_path):
    report = {"a": 1, "b": [0.1, 2.5e-17, True, None], "c": {"d": "x"}}
    out = tmp_path / "r.json"
    with open(out, "w") as fh:
        emit(report, "json", fh)
    loaded = json.loads(out.read_text())
    assert loaded == report
    # re-emitting the loaded report reproduces the bytes
    out2 = tmp_path / "r2.json"
    with open(out2, "w") as fh:
        emit(loaded, "json", fh)
    assert out.read_text() == out2.read_text()


def test_csv_empty_and_quoting(tmp_path):
    out = tmp_path / "t.csv"
    with open(out, "w") as fh:
        emit([], "csv", fh, header=["a", "b"])
    assert out.read_text() == "a,b\n"  # empty table keeps its header
    with open(out, "w") as fh:
        emit([{"a": 'x,"y"', "b": 0.5}], "csv", fh)
    assert out.read_text() == 'a,b\n"x,""y""",0.5\n'


def test_sum_poisson_default_truncation(problem_file, tmp_path):
    # --M may be omitted: the radius defaults to the q*Theta/P heuristic
    code, text = run_to_file(
        tmp_path,
        ["sum", "--problem", problem_file, "--mode", "poisson",
         "--P", "8", "--q", "2", "--a3", "1", "--a2", "1"],
    )
    assert code == 0
    assert json.loads(text)["meta"]["M"] >= 1
