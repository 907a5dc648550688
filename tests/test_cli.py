"""CLI: problem loading, subcommands, output formats, determinism, exit codes."""

import argparse
import csv
import io
import json
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from circlelab import archimedean, arcs, cli, counting, expsums, gridsum, localdens
from circlelab.cli import ProblemError, emit, load_problem, run

from conftest import kernel_integrand, smooth_factor


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


# diagonal n = 5 pair: five one-variable blocks, so series convolves block
# histograms; the output below was captured from the full scans and lifts of
# every prime power, before joint histograms were convolved from blocks
D5_PROBLEM = {
    "n": 5,
    "cubic": [[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, -1], [4, 4, 4, 3], [5, 5, 5, -2]],
    "quadric": [[1, 1, 1], [2, 2, -1], [3, 3, 2], [4, 4, 1], [5, 5, -3]],
    "cubic_nonsingular": True,
}

D5_SERIES_R12 = '''{
  "R": 12,
  "value": 2.4983800659901183,
  "imag_residual": 2.9632493550536175e-18,
  "terms": [{
    "q": 1,
    "term": 1
  }, {
    "q": 2,
    "term": 0
  }, {
    "q": 3,
    "term": 0.22222222222222221
  }, {
    "q": 4,
    "term": 0.5
  }, {
    "q": 5,
    "term": 0.15999999999999998
  }, {
    "q": 6,
    "term": 0
  }, {
    "q": 7,
    "term": -0.01749271137026253
  }, {
    "q": 8,
    "term": 0.5
  }, {
    "q": 9,
    "term": -1.5402372635826655e-17
  }, {
    "q": 10,
    "term": 0
  }, {
    "q": 11,
    "term": 0.022539444027047582
  }, {
    "q": 12,
    "term": 0.11111111111111115
  }],
  "a_of_q": [{
    "q": 1,
    "A": 1
  }, {
    "q": 2,
    "A": 0
  }, {
    "q": 3,
    "A": 54
  }, {
    "q": 4,
    "A": 1024
  }, {
    "q": 5,
    "A": 1118.0339887498949
  }, {
    "q": 6,
    "A": 0
  }, {
    "q": 7,
    "A": 2086.9035946278236
  }, {
    "q": 8,
    "A": 27969.237502960394
  }, {
    "q": 9,
    "A": 64795.909855332771
  }, {
    "q": 10,
    "A": 0
  }, {
    "q": 11,
    "A": 19640.059885508756
  }, {
    "q": 12,
    "A": 55296.000000000029
  }]
}
'''


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

# captured when the pigeonhole record was printed from fields listed by hand
ARCS_P100_POINT = '''{
  "P": 100,
  "delta": 0.14285714285714285,
  "alpha3": 0.29999999999999999,
  "alpha2": 0.69999999999999996,
  "is_major": false,
  "witness": null,
  "pigeonhole": {
    "q": 10,
    "a3": 3,
    "a2": 7,
    "theta3": 0,
    "theta2": 0
  },
  "measure": 1.4910374881259752e-09
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
# diagonal).  They were captured again when the Weyl sums took exact phases
# (alpha as a 64-bit turn, e(.) from turn tables): abs_S moved by at most
# 5.3e-12 relative, t3 and t2 by 2.7e-12, and no discrete column changed.
# Against a Fraction-phase oracle abs_S is now within 1.6e-14 relative,
# where the float phases were up to 5.3e-12 off.
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
0.21232056244048478,0.089928904587956771,1.8206137846081993,False,,146,31,13,44.467461433006243,44.467461433006243,146,31,-8.2046828028814467e-06,True,,unclassifiable
0.013657841312064897,0.33884254517617635,17.85322425943135,False,,73,1,25,14.20014961578975,14.20014961578975,366,5,-3.3608737274523626e-06,True,,unclassifiable
0.27109007973342414,0.97091852575924065,9.0161291616661039,False,,166,45,161,19.982102761291905,19.982102761291905,166,45,5.7423840265635739e-06,True,,unclassifiable
0.53554525858905999,0.24316552032799946,0.47228520211197728,False,,211,113,51,87.307003175549909,87.307003175549909,211,113,2.3489237754859005e-07,True,,unclassifiable
0.51454166382180766,0.64502414126258945,1.0358310839272953,False,,344,177,222,58.953118134713492,58.953118134713492,447,230,2.7679719916129386e-07,True,,unclassifiable
0.60528451804051076,0.66757950005671596,4.7014188536825259,False,,76,46,51,27.671759728580746,27.671759728580746,38,23,2.1360145773918759e-05,True,1,both
0.95246809219585649,0.011195191768488119,1.1874162183170607,False,,21,20,21,55.06171854780488,55.06171854780488,21,20,8.7139814904158008e-05,True,1,both
0.90988514880998128,0.39188520686751965,17.890567977198614,False,,233,212,91,14.18532159603366,14.18532159603366,344,313,1.4278797487721206e-06,True,,unclassifiable
0.95439297411662893,0.84715374008303057,8.9448561127587247,False,,307,293,260,20.061553991223263,20.061553991223263,307,293,-4.4200201788635596e-06,True,,unclassifiable
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
    "n4_crt_q30": ("n4", ["sum", "--mode", "crt", "--q", "30", "--a3", "1", "--a2", "7",
                          "--m", "1,0,0,0"]),
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
    # captured when each factor was printed from fields listed by hand in cli
    "n4_crt_q30": '''{
  "re": 1625.6545755762922,
  "im": -45.801136997235744,
  "abs": 1626.2996474335148,
  "meta": {
    "mode": "crt",
    "q": 30,
    "m": [1, 0, 0, 0],
    "factors": [{
      "modulus": 2,
      "a3": 1,
      "a2": 1,
      "value": {
        "re": -4,
        "im": 1.2246467991473533e-15,
        "abs": 4
      }
    }, {
      "modulus": 3,
      "a3": 1,
      "a2": 1,
      "value": {
        "re": 4.4999999999999902,
        "im": -7.7942286340599392,
        "abs": 8.9999999999999876
      }
    }, {
      "modulus": 5,
      "a3": 1,
      "a2": 2,
      "value": {
        "re": -23.680339887498988,
        "im": -38.47104421469065,
        "abs": 45.174990206486584
      }
    }]
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
# 4.5e-15 times |S|.  The integral, osc and Poisson outputs that moved were
# captured again when the quadrature began to sum each support box of the
# whole grid with uniform weights, in place of contracting zero-filled
# slabs against trapezoid weights (the same rule, summed in another
# order): every float moved by at most 1.3e-15 times the record's largest,
# and no level changed.  The three direct-sum outputs were captured again
# when the Weyl sums took exact phases (alpha as a 64-bit turn, e(.) from
# turn tables): re, im and abs moved by at most 9.3e-15 times the record's
# largest float (1.8e-15 for nd3, 3.2e-15 for nocubic).  At P = 12 the
# float phases were still good to about 1e-15, and both captures lie
# within 1.9e-14 times |S| of a Fraction-phase oracle.  The three Poisson
# outputs were captured again when the m-family moved to grids whose
# phases are periodic in the node index (P/q h = r/N), folded mod N and
# contracted with one phase table.  This job's grids of 128 and 256
# intervals turn by 1/80 and 1/160 per node and so kept their spacing; re,
# im and abs moved by rounding only, at most 7.7e-16 times the record's
# largest float (nd3; 3.9e-16 for noquadric, 3.4e-16 for nocubic).  The
# three osc and three Poisson outputs were captured again when the
# quadrature streamed boxes of weightfn.BOX = 2^16 points, a single sum
# still rounded per sub-box of weightfn.CHUNK = 2^14: their grids span
# several boxes, so the order of their sums changed.  Every float moved by
# at most 1.5e-15 times the record's largest (Poisson, nd3; 6.0e-16 for
# noquadric, 2.3e-16 for nocubic), the osc values by at most 1.2e-18 of it,
# quad_error by at most 2.8e-11 of itself, and no level changed.
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
  "im": 0.00034113719366968059,
  "abs": 0.011925572098257366,
  "meta": {
    "mode": "integral",
    "gamma3": 1.5,
    "gamma2": 1,
    "z": [1, -1, 0],
    "quad_error": 2.9535551888648241e-08,
    "quad_level": 6
  }
}
''',
    ("nd3", "direct"): '''{
  "re": 1.4150423053115255,
  "im": 2.5131881524795587,
  "abs": 2.8841739572336782,
  "meta": {
    "mode": "direct",
    "P": 12,
    "alpha3": 0.31,
    "alpha2": 0.56999999999999995
  }
}
''',
    ("nd3", "poisson"): '''{
  "re": 1.1410273883958826,
  "im": 0.90022626663421046,
  "abs": 1.4533928691884026,
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
  "error": 2.6039243579412119e-07,
  "level": 6
}
''',
    ("nocubic", "osc"): '''{
  "re": 0.012524356920294534,
  "im": 7.1479726636492944e-06,
  "abs": 0.012524358960060301,
  "meta": {
    "mode": "integral",
    "gamma3": 1.5,
    "gamma2": 1,
    "z": [1, -1, 0],
    "quad_error": 3.7934412535148037e-08,
    "quad_level": 6
  }
}
''',
    ("nocubic", "direct"): '''{
  "re": -0.75838525560779657,
  "im": -0.70452178296828805,
  "abs": 1.0351324256345749,
  "meta": {
    "mode": "direct",
    "P": 12,
    "alpha3": 0.31,
    "alpha2": 0.56999999999999995
  }
}
''',
    ("nocubic", "poisson"): '''{
  "re": 1.9556216421566988,
  "im": 0.023367657650527066,
  "abs": 1.9557612468539547,
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
  "value": 0.11270522980789044,
  "error": 8.1604367174747949e-07,
  "level": 4
}
''',
    ("noquadric", "osc"): '''{
  "re": 0.01235703318651124,
  "im": -2.107689023311821e-19,
  "abs": 0.01235703318651124,
  "meta": {
    "mode": "integral",
    "gamma3": 1.5,
    "gamma2": 1,
    "z": [1, -1, 0],
    "quad_error": 1.039615082736034e-08,
    "quad_level": 6
  }
}
''',
    ("noquadric", "direct"): '''{
  "re": -0.23106094687272241,
  "im": -7.4376173261792777e-16,
  "abs": 0.23106094687272241,
  "meta": {
    "mode": "direct",
    "P": 12,
    "alpha3": 0.31,
    "alpha2": 0.56999999999999995
  }
}
''',
    ("noquadric", "poisson"): '''{
  "re": 0.5756678637728263,
  "im": 4.7838556227414822e-16,
  "abs": 0.5756678637728263,
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


def test_info_without_h(tmp_path, capsys):
    # neither cubic_nonsingular nor h: h and the predicates that need it
    # read null, and no singular-point scan runs
    path = tmp_path / "no_h.json"
    path.write_text(json.dumps({k: v for k, v in LINE_PROBLEM.items() if k != "cubic_nonsingular"}))
    assert run(["info", "--problem", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["h"] is None
    hyp = rep["hypotheses"]
    assert [hyp[k] for k in ("h", "h_rho_product", "h_rho_min37", "nonsingular_cubic_product")] == [None] * 4
    assert "nonsingularity_scan" not in rep


@pytest.mark.parametrize("threads,reason", [
    ("0", "expected an integer >= 1, got '0'"),
    ("-5", "expected an integer >= 1, got '-5'"),
    ("two", "invalid int value: 'two'"),
])
def test_threads_below_one_is_a_usage_error(problem_file, capsys, threads, reason):
    assert run(["count", "--problem", problem_file, "--P", "8", f"--threads={threads}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: circlelab count")
    assert err.endswith(f"error: argument --threads: {reason}\n")


def test_float_flag_that_is_not_a_number(problem_file, capsys):
    assert run(["count", "--problem", problem_file, "--P", "abc"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument --P: invalid float value: 'abc'\n")


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


@pytest.mark.parametrize("rq, rgamma, P", [("1", "4", "10"), ("3", "2", "8")])
def test_predict_prints_the_product_of_its_parts(tmp_path, problem_file, rq, rgamma, P):
    # n = 2 is far outside the theorem range, but the main term is well
    # defined: S(R_q) J(R_gamma) P^(n-5), bit for bit as printed
    code, text = run_to_file(
        tmp_path, ["predict", "--problem", problem_file, "--Rq", rq, "--Rgamma", rgamma, "--P", P]
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["prediction"] == rep["sing_series"] * rep["sing_integral"] * float(P) ** (2 - 5)
    assert math.isfinite(rep["prediction"]) and rep["prediction"] != 0


def test_compare_predicts_as_predict_does(tmp_path, problem_file):
    code, text = run_to_file(
        tmp_path, ["compare", "--problem", problem_file, "--P", "8,16", "--Rq", "2", "--Rgamma", "2"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [row["P"] for row in rows] == ["8", "16"]
    for row in rows:
        code, text = run_to_file(
            tmp_path,
            ["predict", "--problem", problem_file, "--Rq", "2", "--Rgamma", "2", "--P", row["P"]],
        )
        assert code == 0
        assert float(row["prediction"]) == json.loads(text)["prediction"]


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


def test_runs_share_one_parser_and_print_as_alone(problem_file, capsys):
    # the parser is built on the first run and kept: a usage error (argparse
    # exits 2) before or after a valid run leaves each run's exit code,
    # stdout and stderr as they are with a parser of its own
    usage = ["series", "--problem", problem_file, "--R", "six"]
    valid = ["series", "--problem", problem_file, "--R", "6"]

    def outcome(argv):
        code = run(argv)
        return code, capsys.readouterr()

    alone = []
    for argv in (usage, valid):
        cli._parser.cache_clear()
        alone.append(outcome(argv))
    assert [code for code, _ in alone] == [2, 0]
    assert alone[0][1].out == "" and "invalid int value: 'six'" in alone[0][1].err
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in (usage, valid, usage, valid)] == alone * 2
    assert cli._parser.cache_info().misses == 1


def test_parser_defaults_are_immutable():
    # run() shares one parser, so no default may be an object a run could change
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.default is None or type(action.default) in (bool, int, float, str), (
                name, action.dest)


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
    # sum_{q <= 12} q^3 = 6084 > cap >= 340, the line scans of the primes,
    # sum_{p <= 11} (p^3 - 1)/(p - 1) = 241, and the lifts to 4, 8, 9 from the
    # grids mod 2, 4, 3, 2^3 + 4^3 + 3^3 = 99
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


# one block in all five variables: x1 x2 x3 and x3 x4 x5 join the cubic
B5_PROBLEM = {
    "n": 5,
    "cubic": [[1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1], [4, 4, 4, 1], [5, 5, 5, 1],
              [1, 2, 3, 1], [3, 4, 5, -1]],
    "quadric": [[1, 1, 1], [2, 2, 1], [3, 3, 1], [4, 4, 1], [5, 5, 1], [1, 2, 1], [4, 5, 1]],
}


def test_one_block_n5_series_to_64_fits_the_default_cap(tmp_path):
    # level one costs the (p^5 - 1)/(p - 1) points of the line scan per
    # prime, so S(64) is charged about 5.0e7, within the default cap of 10^8
    # (a scan of p^5 points per prime would be about 2.6e9)
    path = tmp_path / "b5.json"
    path.write_text(json.dumps(B5_PROBLEM))
    terms = {}
    for R in (64, 14):
        code, text = run_to_file(tmp_path, ["series", "--problem", str(path), "--R", str(R)])
        assert code == 0, R
        terms[R] = json.loads(text)["terms"]
    assert [t["q"] for t in terms[64]] == list(range(1, 65))
    assert terms[64][:14] == terms[14]


def test_separable_series_output_is_unchanged(tmp_path):
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(D5_PROBLEM))
    for threads in ("1", "2"):
        code, text = run_to_file(
            tmp_path, ["series", "--problem", str(path), "--R", "12", "--threads", threads]
        )
        assert code == 0
        assert text == D5_SERIES_R12, threads


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
    argv = ["arcs", "--P", "100", "--alpha3", "0.3", "--alpha2", "0.7"]
    assert run_to_file(tmp_path, argv) == (0, ARCS_P100_POINT)
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


# nr --R 10 on the cubic x1^3 + (x1 + x2)^3 + (x2 + x3)^3, one block,
# charges its 19^3 x-range, then one 19^3 y-scan for each of the 3 distinct
# kernels of rank one, one for each line on which two of the three linear
# forms vanish.
@pytest.mark.parametrize("cap,code,message", [
    (19**3 - 1, 3, "error: bilinear count x-range: 6859 elements exceeds cap 6858\n"),
    (3 * 19**3 - 1, 3, "error: bilinear count y-scan: 20577 elements exceeds cap 20576\n"),
    (3 * 19**3, 0, ""),
])
def test_nr_honours_the_cap(tmp_path, capsys, cap, code, message):
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({
        "n": 3,
        "cubic": [[1, 1, 1, 2], [1, 1, 2, 3], [1, 2, 2, 3], [2, 2, 2, 2], [2, 2, 3, 3], [2, 3, 3, 3], [3, 3, 3, 1]],
        "quadric": [[1, 1, 1], [2, 2, -1]],
    }))
    assert run(["nr", "--problem", str(path), "--R", "10", "--cap", str(cap)]) == code
    out, err = capsys.readouterr()
    assert err == message
    if code == 0:
        assert json.loads(out) == {"R": 10, "n_R": 50653}


# quadrature.grid_contract charges each grid it builds to the cap: every
# level's (2^level + 1)^n grid of the tensor quadrature, and each
# refinement grid of sum --mode poisson; on the line problem the last grid
# is the largest charge of each job: level 7 for J(1) (also inside predict
# and compare), level 6 for I(gamma; z), and the Poisson grid refined from
# 64 to 256 intervals, whose phase table of 80 + 79 rows by 9 frequencies
# (1/80 turn per node) takes 1 431 entries.  At P/q = 10000 and M = 0 the
# Poisson levels of 64, 128 and 256 intervals would turn by y = 125, 62.5
# and 31.25 per node; they turn by 125, 62 and 31, the largest integers in
# [y (1 - 2^-6), y], so their grids have 64, 129 and 258 intervals, not the
# 8 000 or more of a grid that turns by 1/N.
QUAD_CAP = "quadrature grid {side}^2 exceeds point cap {cap}"


@pytest.mark.parametrize("argv,side,message", [
    (["integral", "--R", "1", "--tol", "1e-6"], 129, QUAD_CAP),
    (["sum", "--mode", "integral", "--gamma3", "1.5", "--gamma2", "1", "--z", "1,-1",
      "--tol", "1e-6"], 65, QUAD_CAP),
    (["sum", "--mode", "poisson", "--P", "8", "--q", "2", "--a3", "1", "--a2", "1",
      "--theta3", "1e-4", "--M", "4"], 257, QUAD_CAP),
    (["sum", "--mode", "poisson", "--P", "10000", "--q", "1", "--a3", "1", "--a2", "1",
      "--M", "0"], 259, QUAD_CAP),
    (["predict", "--Rq", "2", "--Rgamma", "1", "--P", "16", "--tol", "1e-6"], 129, QUAD_CAP),
    (["compare", "--P", "8,16", "--Rq", "2", "--Rgamma", "1", "--tol", "1e-6"], 129, QUAD_CAP),
], ids=["integral", "sum-integral", "sum-poisson", "sum-poisson-M0", "predict", "compare"])
def test_quadrature_grids_honour_the_cap(problem_file, capsys, argv, side, message):
    argv = argv[:1] + ["--problem", problem_file] + argv[1:]
    points = side**2
    assert run(argv + ["--cap", str(points)]) == 0
    capsys.readouterr()
    assert run(argv + ["--cap", str(points - 1)]) == 3
    err = capsys.readouterr().err
    assert err == "error: " + message.format(side=side, points=points, cap=points - 1) + "\n"


# C = x1^3 and Q = x1^2 on |x1 - 0.05| <= 0.3, so m = 0.35 and C+(m) =
# 0.042875: the Poisson family's phase, m-grid and phase table are each
# refused before anything is built from them
POISSON_LINE_PROBLEM = {"n": 1, "cubic": [[1, 1, 1, 1]], "quadric": [[1, 1, 1]], "weight": {"x0": [0.05], "xi": 0.3}}


@pytest.mark.parametrize("forms, flags, code, message", [
    # gamma3 = 1e308 P^3 overflows; the alias level once doubled its grid
    # side forever chasing it
    ({}, ["--P", "2", "--theta3", "1e308", "--M", "0"], 2,
     "the phase of I(gamma; (P/q) m) at gamma = (inf, 0.0), |m|_inf <= 0 may reach inf >= 2^52 on the weight's "
     "support, where it has no correct digit"),
    # once a cap refusal of a 300-digit grid side
    ({}, ["--P", "2", "--theta3", "1e300", "--M", "0"], 2,
     "the phase of I(gamma; (P/q) m) at gamma = (8e+300, 0.0), |m|_inf <= 0 may reach 3.43e+299 >= 2^52 on the "
     "weight's support, where it has no correct digit"),
    # without --M, default_truncation refuses the phase at the frequency
    # max(4 Theta, S) before it rounds the radius: here the radius was a
    # 289-digit M, refused only by the family, at the same size
    ({}, ["--P", "2", "--theta3", "1e287"], 2,
     "the phase of I(gamma; (P/q) m) at gamma = (8e+287, 0.0), |(P/q) m|_inf <= 3.2e+288 may reach 1.15e+288 >= "
     "2^52 on the weight's support, where it has no correct digit"),
    # the slope 8e287 * 3 * 2^70 * 0.35^2 overflows while Theta = 1 + 8e287
    # does not, and with no quadric Theta = 1 + 1e308 overflows in 4 Theta;
    # math.ceil of the infinite radius once ended each run with "cannot
    # convert float infinity to integer"
    ({"cubic": [[1, 1, 1, 2**70]]}, ["--P", "2", "--theta3", "1e287"], 2,
     "the phase of I(gamma; (P/q) m) at gamma = (8e+287, 0.0), |(P/q) m|_inf <= inf may reach inf >= 2^52 on the "
     "weight's support, where it has no correct digit"),
    ({"quadric": []}, ["--P", "10000", "--theta2", "1e300"], 2,
     "the phase of I(gamma; (P/q) m) at gamma = (0.0, 1e+308), |(P/q) m|_inf <= inf may reach inf >= 2^52 on the "
     "weight's support, where it has no correct digit"),
    # the m-grid was allocated (14.6 TiB) before it was charged
    ({}, ["--P", "2", "--M", "1000000000000"], 3,
     "poisson m-grid (2M+1)^n = 2000000000001^1: 2000000000001 elements exceeds cap 100000000"),
    # the alias level's 2^22 intervals take y = 6 / 2^22 turn per node, so
    # its grid turns by 1/699051 and has 4194306 nodes, which fit the cap;
    # its phase table of 699051 + 699050 rows against the default M's 800019
    # frequencies does not (the case once refused the phase matrix of the
    # 2^22 + 1 nodes, hence its id)
    ({}, ["--P", "10", "--theta2", "1e4"], 3,
     "quadrature phase table 1398101 x 800019: 1118507363919 elements exceeds cap 100000000"),
], ids=["phase-inf", "phase-1e300", "default-M-phase", "default-M-slope-inf", "default-M-theta-inf", "m-grid",
        "phase-matrices"])
def test_poisson_family_refuses_up_front(tmp_path, capsys, forms, flags, code, message):
    path = tmp_path / "line1.json"
    path.write_text(json.dumps({**POISSON_LINE_PROBLEM, **forms}))
    start = time.perf_counter()
    argv = ["sum", "--problem", str(path), "--mode", "poisson", "--q", "1", "--a3", "1", "--a2", "1"] + flags
    assert run(argv) == code
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


# three blocks of one variable each
D3_PROBLEM = {
    "n": 3,
    "cubic": [[1, 1, 1, 2], [2, 2, 2, -3], [3, 3, 3, 1]],
    "quadric": [[1, 1, 1], [2, 2, 2], [3, 3, -2]],
    "weight": {"x0": [0.03, -0.01, 0.02], "xi": 0.4},
}


@pytest.mark.parametrize("argv", [
    ["integral", "--R", "2", "--tol", "1e-8"],
    ["compare", "--P", "10", "--Rq", "2", "--Rgamma", "1", "--tol", "1e-6"],
    ["sum", "--mode", "poisson", "--P", "6", "--q", "3", "--a3", "1", "--a2", "2",
     "--theta3", "1e-3", "--theta2=-2e-3", "--M", "2"],
], ids=["integral", "compare", "poisson"])
def test_block_integrands_agree_with_whole_pair_integrands(tmp_path, monkeypatch, argv):
    # J(R) and the Poisson family on a diagonal pair, with sines and phase
    # factors per block, agree with the same commands run on the whole-pair
    # integrands to 1e-14 of the value, at the same quadrature level
    path = tmp_path / "d3.json"
    path.write_text(json.dumps(D3_PROBLEM))
    argv = argv[:1] + ["--problem", str(path)] + argv[1:]
    code, blocks = run_to_file(tmp_path, argv)
    assert code == 0
    monkeypatch.setattr(archimedean, "_integrand", kernel_integrand)
    monkeypatch.setattr(expsums, "_smooth_factor", smooth_factor)
    code, whole = run_to_file(tmp_path, argv)
    assert code == 0
    if argv[0] == "compare":
        got, want = (list(csv.DictReader(io.StringIO(text))) for text in (blocks, whole))
        assert got[0]["N"] == want[0]["N"]
        got, want = float(got[0]["prediction"]), float(want[0]["prediction"])
    else:
        got, want = json.loads(blocks), json.loads(whole)
        if argv[0] == "integral":
            assert got["level"] == want["level"]
            got, want = got["value"], want["value"]
        else:
            got, want = complex(got["re"], got["im"]), complex(want["re"], want["im"])
    assert abs(got - want) <= 1e-14 * abs(want)


def test_integral_stops_at_a_non_finite_level(tmp_path, capsys):
    # with C = Q = 0 every phase is 0, so R = 1e300 passes the phase check,
    # and the kernels K_R(0) = 2R give (2R)^2 = inf at every node: the first
    # level ends the run, with no warning
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({**LINE_PROBLEM, "cubic": [], "quadric": []}))
    start = time.perf_counter()
    assert run(["integral", "--problem", str(path), "--R", "1e300"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature level 3 (9^2 nodes) gave the non-finite value ")
    assert err.count("\n") == 1


# C = x1^3 + 2 x2^3 and Q = x1^2 - 3 x2^2 with no node on C = Q = 0, where a
# huge R or gamma once refined rounding noise for about a second to "no
# convergence" at depth 12; B = 0.677 at m = (0.4, 0.35)
OFF_ORIGIN_PROBLEM = {
    "n": 2,
    "cubic": [[1, 1, 1, 1], [2, 2, 2, 2]],
    "quadric": [[1, 1, 1], [2, 2, -3]],
    "weight": {"x0": [0.1, -0.05], "xi": 0.3},
}


@pytest.mark.parametrize("argv, what", [
    (["integral", "--R", "1e300"], "J(R) at R = 1e+300"),
    (["integral", "--R", "1e17"], "J(R) at R = 1e+17"),
    (["compare", "--P", "10", "--Rq", "2", "--Rgamma", "1e17"], "J(R) at R = 1e+17"),
    (["predict", "--P", "10", "--Rq", "2", "--Rgamma", "1e300"], "J(R) at R = 1e+300"),
    (["sum", "--mode", "integral", "--gamma3", "1e300"], "I(gamma; z) at gamma = (1e+300, 0.0)"),
    (["sum", "--mode", "integral", "--gamma2=-1e17"], "I(gamma; z) at gamma = (0.0, -1e+17)"),
    (["sum", "--mode", "integral", "--z", "1e17,0"], "I(gamma; z) at gamma = (0.0, 0.0), z = [1e+17, 0.0]"),
], ids=["integral-1e300", "integral-1e17", "compare", "predict", "osc-gamma3", "osc-gamma2", "osc-z"])
def test_huge_phases_are_refused_up_front(tmp_path, capsys, argv, what):
    # |R| B, or |gamma3| B + |gamma2| B + sum |z_i| m_i, at or past 2^52
    path = tmp_path / "off.json"
    path.write_text(json.dumps(OFF_ORIGIN_PROBLEM))
    start = time.perf_counter()
    assert run(argv[:1] + ["--problem", str(path)] + argv[1:]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: the phase of {what}")
    assert err.endswith(">= 2^52 on the weight's support, where it has no correct digit\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, what, cycles", [
    (["integral", "--R", "1e6"], "J(R) at R = 1000000.0", "1.7e+06"),
    (["compare", "--P", "10", "--Rq", "2", "--Rgamma", "1e6"], "J(R) at R = 1000000.0", "1.7e+06"),
    (["sum", "--mode", "integral", "--z", "0,1e6"], "I(gamma; z) at gamma = (0.0, 0.0), z = [0.0, 1000000.0]",
     "6e+05"),
], ids=["integral", "compare", "osc-z"])
def test_unresolvable_oscillations_are_refused_up_front(tmp_path, capsys, argv, what, cycles):
    # R = 1e6 is far below 2^52 / B, but the slope majorant of R (C + Q) along
    # x2, R (6 m2^2 + 6 m2) = 2.835e6 with m2 = 0.35, runs through 1.7e6
    # cycles across 2 xi = 0.6, 415 times the 4096 intervals of the depth-12
    # grid: such a run once took all 12 levels to "no convergence" (exit 3)
    path = tmp_path / "off.json"
    path.write_text(json.dumps(OFF_ORIGIN_PROBLEM))
    start = time.perf_counter()
    assert run(argv[:1] + ["--problem", str(path)] + argv[1:]) == 2
    assert time.perf_counter() - start < 0.2
    assert capsys.readouterr().err == (
        f"error: the phase of {what} may run through {cycles} cycles along an axis of the weight's support, "
        "more than 16 times the 4096 intervals per axis of the depth-12 quadrature grid\n")


def test_linear_phase_the_grid_cannot_resolve_is_refused(tmp_path, capsys):
    # z = (4e4, 0) runs through 16000 cycles across 2 xi = 0.4, and every
    # node of levels 3-7 sat at the same phase of z.x: the refinement agreed
    # on the mass of omega, 0.018660495726 at level 7.  Two intervals per
    # cycle take level 15, past the depth limit
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"n": 2, "cubic": [[1, 1, 1, 1]], "quadric": [],
                                "weight": {"x0": [0.1, -0.05], "xi": 0.2}}))
    assert run(["sum", "--problem", str(path), "--mode", "integral", "--z", "40000,0"]) == 2
    assert capsys.readouterr().err == (
        "error: z in I(gamma; z) at gamma = (0.0, 0.0), z = [40000.0, 0.0] runs through 1.6e+04 cycles along "
        "an axis of the weight's support; two grid intervals per cycle take quadrature level 15, and the "
        "refinement compares levels only up to depth 12\n")


def test_resolvable_oscillation_still_converges(tmp_path, capsys):
    # R = 1000 puts 1701 cycles of the majorant across the support, 0.42
    # times 4096, and converges at level 12
    path = tmp_path / "off.json"
    path.write_text(json.dumps(OFF_ORIGIN_PROBLEM))
    assert run(["integral", "--problem", str(path), "--R", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["level"] == 12


# a cubic coefficient beyond the float range: the exact paths run, and each
# float path reports the overflow as an input error
HUGE_PROBLEM = dict(LINE_PROBLEM, cubic=[[1, 1, 1, 10**400], [2, 2, 2, 1]])

HUGE_SERIES_R3 = """{
  "R": 3,
  "value": 3,
  "imag_residual": 0,
  "terms": [{
    "q": 1,
    "term": 1
  }, {
    "q": 2,
    "term": 0
  }, {
    "q": 3,
    "term": 2
  }],
  "a_of_q": [{
    "q": 1,
    "A": 1
  }, {
    "q": 2,
    "A": 0
  }, {
    "q": 3,
    "A": 18
  }]
}
"""

HUGE_COUNT_P10 = """{
  "P": 10,
  "weighted_count": 0.36787944117144233,
  "box": ["-4:4", "-4:4"],
  "box_count": 1
}
"""


@pytest.mark.parametrize("argv, expected", [
    (["integral", "--R", "1"], None),
    (["sum", "--mode", "integral", "--gamma3", "1"], None),
    (["compare", "--P", "10", "--Rq", "2", "--Rgamma", "1"], None),
    (["info"], None),
    (["sum", "--mode", "poisson", "--P", "10", "--q", "2", "--a3", "1", "--a2", "1"], None),
    (["series", "--R", "3"], HUGE_SERIES_R3),
    (["count", "--P", "10"], HUGE_COUNT_P10),
], ids=["integral", "osc", "compare", "info", "poisson", "series", "count"])
def test_coefficients_beyond_the_float_range(tmp_path, capsys, argv, expected):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_PROBLEM))
    code = run(argv[:1] + ["--problem", str(path)] + argv[1:])
    out, err = capsys.readouterr()
    if expected is None:
        assert (code, out) == (2, "")
        assert err == "error: int too large to convert to float\n"
    else:
        assert (code, out, err) == (0, expected, "")


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
    # the grid's k^2 points are charged first, then the pigeonhole scans,
    # which screen the moduli up to each point's q and share the cap: their
    # q add up to 887 on this grid, 790 before the last point
    argv = ["arcs", "--P", "50", "--grid", "3", "--seed", "4"]
    assert run_to_file(tmp_path, argv + ["--cap", "887"]) == (0, ARCS_GRID3_SEED4)
    assert run(argv + ["--cap", "886"]) == 3
    assert capsys.readouterr().err == (
        "error: grid of 9 points: pigeonhole scans exceed cap 886 in total "
        "(790 moduli screened by the first 8 points)\n"
    )
    assert run(argv + ["--cap", "8"]) == 3
    assert capsys.readouterr().err == "error: grid 3^2: 9 elements exceeds cap 8\n"
    # at P = 2 every pigeonhole q is at most Q3 Q2 = 2, so the grid binds
    argv = ["arcs", "--P", "2", "--grid", "2"]
    assert run_to_file(tmp_path, argv + ["--cap", "4"])[0] == 0
    assert run(argv + ["--cap", "3"]) == 3
    assert capsys.readouterr().err == "error: grid 2^2: 4 elements exceeds cap 3\n"


def test_weyl_scan_grid_shares_the_cap(tmp_path, capsys):
    # n = 1, so the lattice box (49 points) binds before the pigeonhole
    # scans, whose q on this grid add up to 1577 (those of WEYL_SCAN_P60_GRID3)
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "cubic": [[1, 1, 1, 1]], "quadric": [[1, 1, 1]],
                                "cubic_nonsingular": True}))
    argv = ["weyl-scan", "--problem", str(path), "--P", "60", "--grid", "3"]
    code, text = run_to_file(tmp_path, argv + ["--cap", "1577"])
    assert code == 0
    assert [row["pigeon_q"] for row in csv.DictReader(io.StringIO(text))] == [
        line.split(",")[5] for line in WEYL_SCAN_P60_GRID3.splitlines()[1:]
    ]
    assert run(argv + ["--cap", "1576"]) == 3
    assert capsys.readouterr().err == (
        "error: grid of 9 points: pigeonhole scans exceed cap 1576 in total "
        "(1270 moduli screened by the first 8 points)\n"
    )


# 36 points at P = 60000 whose pigeonhole q add up to 595 336 382 (the
# largest is 47 419 463): every q is within the default cap 10^8, the total
# is not.  The CSV was captured when each point had the cap to itself.
ARCS_P60000_GRID6 = ["arcs", "--P", "60000", "--grid", "6"]
ARCS_P60000_GRID6_CSV = '''alpha3,alpha2,is_major,q,a3,a2,pigeon_q,pigeon_a3,pigeon_a2
0.10616028122024239,0.044964452293978385,False,,,,1734726,184159,78001
0.0068289206560324485,0.16942127258808817,False,,,,32080033,219072,5435040
0.13554503986671207,0.48545926287962032,False,,,,38278044,5188399,18582431
0.10110596262786331,0.62158276016399971,False,,,,9859646,996869,6128586
0.090604165244237145,0.82251207063129472,False,,,,1406304,127417,1156702
0.13597559235358869,0.83378975002835798,False,,,,7428164,1010049,6193527
0.30956737943126156,0.0055975958842440594,False,,,,19297395,5973844,108019
0.28827590773832401,0.19594260343375983,False,,,,15191658,4379389,2976693
0.31052982039164778,0.42357687004151529,False,,,,12038306,3738253,5099148
0.21661864842289746,0.57044787019960974,False,,,,25829766,5595209,14734535
0.17138661185757717,0.6873805460832606,False,,,,11186959,1917295,7689698
0.27843740244893839,0.94119825192904172,False,,,,5346559,1488682,5032172
0.43589751858020898,0.063946259043647244,False,,,,5892151,2568374,376781
0.49953498929820189,0.33013922312937166,False,,,,2176294,1087135,718480
0.44759033074678251,0.44174321271130274,False,,,,43543673,19489727,19235122
0.4480744550951567,0.56482023732985065,False,,,,15313821,6861732,8649556
0.35584941750373522,0.78691472336568025,False,,,,35815079,12744775,28183413
0.42089238707928761,0.8850403125931593,False,,,,26932528,11335696,23836373
0.58097255980529816,0.14824797239150003,False,,,,6426813,3733802,952762
0.65567391932604158,0.2262991994515117,False,,,,12892834,8453495,2917638
0.59525497178829345,0.38697823184599039,False,,,,1810063,1077449,700455
0.59905000503328276,0.55631853758452221,False,,,,36109665,21631495,20088476
0.56526983342136017,0.815045725334132,False,,,,5072259,2867195,4134123
0.53785959892223001,0.9371978574476737,False,,,,538899,289852,505055
0.68066922393039742,0.13877402460889962,False,,,,40725561,27720636,5651650
0.79784971791478065,0.20656157383215867,False,,,,7481251,5968914,1545339
0.81274737180178391,0.34309467246753239,False,,,,12778336,10385559,4384179
0.72268617675761015,0.52504657781580655,False,,,,930527,672479,488570
0.74172322777488109,0.79938737838121565,False,,,,19499117,14462948,15587348
0.7051070348322912,0.84200355017740158,False,,,,14301606,10084163,12042003
0.90075863997025474,0.033085507418209224,False,,,,47419463,42713491,1568897
0.84845884093652035,0.26338873099780846,False,,,,7467529,6335891,1966863
0.8831160221364871,0.44533247965939321,False,,,,24466219,21606510,10895602
0.86658590732803553,0.65701885175108299,False,,,,4380092,3795726,2877803
0.89418502804080469,0.68424921326170496,False,,,,18545816,16583391,12689960
0.93818469192328491,0.98785909217797796,False,,,,25139226,23585237,24834013
'''


def test_arcs_grid_total_is_bounded_by_the_cap(tmp_path, capsys):
    start = time.perf_counter()
    assert run(ARCS_P60000_GRID6) == 3
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == ("", (
        "error: grid of 36 points: pigeonhole scans exceed cap 100000000 in total "
        "(90786917 moduli screened by the first 6 points)\n"
    ))
    argv = ARCS_P60000_GRID6 + ["--cap", "600000000"]
    assert run_to_file(tmp_path, argv) == (0, ARCS_P60000_GRID6_CSV)


# 0.1234567 and 0.7654321 are within float rounding of a/10^7: from P = 10^5
# to 10^7 the smallest pigeonhole modulus is q = 10^7, while at P = 10^8,
# where Q3 Q2 is about 2.2e13, no q up to the default cap 10^8 qualifies
ALPHAS_1E7 = ["--alpha3", "0.1234567", "--alpha2", "0.7654321"]


def test_pigeonhole_scan_stops_at_the_cap(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["arcs", "--P", "1e8"] + ALPHAS_1E7) == 3
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == ("", (
        "error: pigeonhole scan: no q <= 100000000 qualifies, "
        "and Q3 Q2 = 21536972187904 exceeds cap 100000000\n"
    ))
    code, text = run_to_file(tmp_path, ["arcs", "--P", "1e5"] + ALPHAS_1E7)
    assert code == 0
    assert json.loads(text)["pigeonhole"]["q"] == 10**7
    assert run(["arcs", "--P", "1e5", "--cap", "1000000"] + ALPHAS_1E7) == 3
    assert "exceeds cap 1000000" in capsys.readouterr().err


# P^{4/3} in the Dirichlet cutoffs and P^3 in the Poisson phases are beyond
# the largest float at P = 1e300; floor(P^delta) is about 7e42 moduli
@pytest.mark.parametrize("argv,code,message", [
    (["arcs", "--P", "1e300", "--grid", "2"], 3,
     "major arc moduli q <= P^delta: 7196856730011520253269183849678755991016964 elements "
     "exceeds cap 100000000"),
    (["weyl-scan", "--P", "1e300", "--grid", "1"], 3, "error: lattice box: "),
    (["sum", "--mode", "poisson", "--P", "1e300", "--q", "2", "--a3", "1", "--a2", "1",
      "--M", "0"], 2, "P = 1e+300 is too large: P**3 overflows a float"),
])
def test_huge_sizes_are_refused_with_a_message(problem_file, capsys, argv, code, message):
    if argv[0] != "arcs":
        argv = argv[:1] + ["--problem", problem_file] + argv[1:]
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


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


# an empty list flag was read as an absent one: compare computed S and J
# and printed nothing, --m and --z ran at zero vectors and --box fell back
# to the weight box
@pytest.mark.parametrize("argv, value", [
    (["compare", "--P=", "--Rq", "3", "--Rgamma", "1"], ""),
    (["compare", "--P=,", "--Rq", "3", "--Rgamma", "1"], ","),
    (["sum", "--mode", "complete", "--q", "3", "--a3", "1", "--a2", "1", "--m="], ""),
    (["sum", "--mode", "crt", "--q", "6", "--a3", "1", "--a2", "1", "--m="], ""),
    (["sum", "--mode", "integral", "--z="], ""),
    (["count", "--P", "10", "--box="], ""),
])
def test_empty_list_flags_are_refused(nd3_file, capsys, monkeypatch, argv, value):
    def main_term_part(*args, **kwargs):
        raise AssertionError("S or J computed for an empty --P")

    monkeypatch.setattr(localdens, "singular_series_truncated", main_term_part)
    monkeypatch.setattr(archimedean, "singular_integral_truncated", main_term_part)
    assert run(argv[:1] + ["--problem", nd3_file] + argv[1:]) == 2
    assert capsys.readouterr() == ("", f"error: expected a comma-separated list, got {value!r}\n")


# a one-entry --m ran at (m, m, m), while --z and --box were refused, and
# --box only after the weighted count had scanned the weight's box
@pytest.mark.parametrize("argv, name", [
    (["sum", "--mode", "complete", "--q", "5", "--a3", "1", "--a2", "1", "--m", "1"], "m"),
    (["sum", "--mode", "crt", "--q", "6", "--a3", "1", "--a2", "1", "--m", "1"], "m"),
    (["sum", "--mode", "integral", "--gamma3", "1", "--z", "0.5"], "z"),
    (["count", "--P", "10", "--box=-1:1"], "box"),
], ids=["complete", "crt", "integral", "count"])
def test_vector_flags_need_n_entries(nd3_file, capsys, monkeypatch, argv, name):
    def scan(*args, **kwargs):
        raise AssertionError("scan run for a vector of the wrong length")

    for module, function in ((expsums, "phase_histogram"), (expsums, "tensor_integral"),
                             (counting, "enumerate_solutions")):
        monkeypatch.setattr(module, function, scan)
    assert run(argv[:1] + ["--problem", nd3_file] + argv[1:]) == 2
    assert capsys.readouterr() == ("", f"error: {name} has length 1, expected 3\n")


POISSON = ["sum", "--mode", "poisson", "--q", "2", "--a3", "1", "--a2", "1"]


# predict raised ZeroDivisionError at P = 0 and printed a negative prediction
# at P = -8; poisson raised ZeroDivisionError at P = 0 and printed a
# reconstruction below 1, with or without --M.  Every command that takes P
# goes through weightfn.check_scale, as count and direct sums always did.
@pytest.mark.parametrize("argv, P", [
    (["predict", "--Rq", "2", "--Rgamma", "1", "--P", "0"], "0.0"),
    (["predict", "--Rq", "2", "--Rgamma", "1", "--P", "-8"], "-8.0"),
    (POISSON + ["--P", "0"], "0.0"),
    (POISSON + ["--P", "-3"], "-3.0"),
    (POISSON + ["--P", "0.5"], "0.5"),
    (POISSON + ["--P", "0", "--M", "2"], "0.0"),
    (["count", "--P", "0.5"], "0.5"),
    (["sum", "--mode", "direct", "--P", "0", "--alpha3", "0.1", "--alpha2", "0.2"], "0.0"),
    (["compare", "--P", "8,0.5", "--Rq", "2", "--Rgamma", "1"], "0.5"),
])
def test_every_P_below_one_is_refused_alike(problem_file, capsys, argv, P):
    assert run(argv[:1] + ["--problem", problem_file] + argv[1:]) == 2
    assert capsys.readouterr() == ("", f"error: P must be >= 1, got {P}\n")


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


@pytest.mark.parametrize("q", ["1", "12"])
@pytest.mark.parametrize("mode", ["complete", "crt"])
def test_sum_needs_an_m_of_length_n(problem_file, capsys, mode, q):
    argv = ["sum", "--problem", problem_file, "--mode", mode,
            "--q", q, "--a3", "1", "--a2", "1", "--m", "1,2,3"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: m has length 3, expected 2\n")


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


def test_emit_pins_the_bytes_of_every_value_kind():
    # one walk of the report: Fractions, complex numbers, numpy scalars,
    # tuples, NaN and infinities each print in place
    report = {
        "fraction": Fraction(-3, 4),
        "complex": complex(1.5, -2.0),
        "float32": np.float32(0.1),
        "int64": np.int64(-7),
        "tuple": (1, 2.5, "x"),
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "empty": [{}, []],
    }
    out = io.StringIO()
    emit(report, "json", out)
    assert out.getvalue() == (
        '{\n'
        '  "fraction": "-3/4",\n'
        '  "complex": {\n'
        '    "re": 1.5,\n'
        '    "im": -2,\n'
        '    "abs": 2.5\n'
        '  },\n'
        '  "float32": 0.10000000149011612,\n'
        '  "int64": -7,\n'
        '  "tuple": [1, 2.5, "x"],\n'
        '  "nan": "nan",\n'
        '  "inf": "inf",\n'
        '  "-inf": "-inf",\n'
        '  "empty": [{}, []]\n'
        '}\n'
    )
    out = io.StringIO()
    emit({}, "json", out)
    emit([], "json", out)
    assert out.getvalue() == "{}\n[]\n"


def test_csv_empty_and_quoting(tmp_path):
    out = tmp_path / "t.csv"
    with open(out, "w") as fh:
        emit([], "csv", fh, header=["a", "b"])
    assert out.read_text() == "a,b\n"  # empty table keeps its header
    with open(out, "w") as fh:
        emit([{"a": 'x,"y"', "b": 0.5}], "csv", fh)
    assert out.read_text() == 'a,b\n"x,""y""",0.5\n'


def test_sum_poisson_theta_from_alpha(problem_file, capsys):
    # --alpha3/--alpha2 set theta_i = alpha_i - a_i/q, and the run prints the
    # bytes of the --theta3/--theta2 run at those theta
    argv = ["sum", "--problem", problem_file, "--mode", "poisson",
            "--P", "6", "--q", "3", "--a3", "1", "--a2", "2", "--M", "2"]
    assert run(argv + ["--alpha3", "0.3343", "--alpha2", "0.6647"]) == 0
    out = capsys.readouterr().out
    meta = json.loads(out)["meta"]
    assert meta["theta3"] == 0.3343 - 1 / 3
    assert meta["theta2"] == 0.6647 - 2 / 3
    assert run(argv + [f"--theta3={meta['theta3']!r}", f"--theta2={meta['theta2']!r}"]) == 0
    assert capsys.readouterr() == (out, "")


# --alpha3 and --alpha2 were turned into theta_i = alpha_i - a_i/q before q
# was checked, so q = 0 ended in a ZeroDivisionError traceback with exit 1
@pytest.mark.parametrize("alpha", [["--alpha3", "0.5"], ["--alpha2", "0.5"]], ids=["alpha3", "alpha2"])
def test_sum_poisson_refuses_q_below_one_before_alpha(problem_file, capsys, alpha):
    argv = ["sum", "--problem", problem_file, "--mode", "poisson", "--P", "10", "--q", "0",
            "--a3", "1", "--a2", "1"]
    assert run(argv + alpha) == 2
    assert capsys.readouterr() == ("", "error: q must be a positive integer, got 0\n")


WEIGHT_WARNING = ("weight support is not contained in (-1/2, 1/2)^n; counts remain well "
                  "defined but the unit-box normalization is lost")


# the library's warnings reached stderr with their source location and an
# echoed source line.  The tests turn warnings into errors, so the Python
# default is restored here, as in a process that runs the CLI
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("x0, argv, warning", [
    ([0.3, 0.0], ["info"], WEIGHT_WARNING),
    ([0.0, 0.0], ["sum", "--mode", "complete", "--q", "4", "--a3", "2", "--a2", "2"],
     "gcd(q, gcd(a3, a2)) > 1 for q=4"),
], ids=["info", "sum-complete"])
def test_warnings_are_one_line_each(tmp_path, capsys, x0, argv, warning):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(LINE_PROBLEM, weight={"x0": x0, "xi": 0.4})))
    assert run(argv[:1] + ["--problem", str(path)] + argv[1:]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)
    assert err == f"warning: {warning}\n"


def test_sum_poisson_default_truncation(problem_file, tmp_path):
    # --M may be omitted: the radius defaults to expsums.default_truncation
    code, text = run_to_file(
        tmp_path,
        ["sum", "--problem", problem_file, "--mode", "poisson",
         "--P", "8", "--q", "2", "--a3", "1", "--a2", "1"],
    )
    assert code == 0
    assert json.loads(text)["meta"]["M"] >= 1


# F1 and F2: forms with large coefficients at a small theta3, whose phase
# slope S on the support exceeds 4 Theta.  The radius q 4 Theta / P + 8 that
# ignored the coefficients (M = 11 and 19) stopped inside the stationary band
# and missed the direct sum by 2.0e-2, 1.6e-1, 1.4e-4 and 7.0e-2 relative.
# At theta3 = 1e-5, F1's S = 1.94 is below 4 Theta = 4.32, and M is that
# radius, 9
POISSON_STEEP_PROBLEMS = {
    "F1": {"n": 1, "cubic": [[1, 1, 1, 40]], "quadric": [[1, 1, 25]], "weight": {"x0": [0.05], "xi": 0.4}},
    "F2": {"n": 2, "cubic": [[1, 1, 1, 30], [2, 2, 2, -20]], "quadric": [[1, 1, 15], [2, 2, 12]],
           "weight": {"x0": [0.05, -0.03], "xi": 0.4}},
}


@pytest.mark.parametrize("name, theta3, M", [
    ("F1", 1e-5, 9), ("F1", 5e-4, 23), ("F1", 2e-3, 67), ("F2", 5e-4, 19), ("F2", 2e-3, 52),
])
def test_default_truncation_covers_the_stationary_band(tmp_path, capsys, name, theta3, M):
    # default-M sum --mode poisson against sum --mode direct at the same alpha
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(POISSON_STEEP_PROBLEMS[name]))
    common = ["--problem", str(path), "--P", "20"]
    assert run(["sum", *common, "--mode", "poisson", "--q", "3", "--a3", "1", "--a2", "2",
                "--theta3", repr(theta3), "--theta2", "0"]) == 0
    poisson = json.loads(capsys.readouterr().out)
    assert run(["sum", *common, "--mode", "direct", "--alpha3", repr(1 / 3 + theta3), "--alpha2", repr(2 / 3)]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert poisson["meta"]["M"] == M
    err = abs(complex(poisson["re"], poisson["im"]) - complex(direct["re"], direct["im"]))
    assert err <= 1e-5 * direct["abs"]
