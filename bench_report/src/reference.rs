//! Input digests and result fingerprints at the default seed.
//! GENERATED by `bench_report --emit-reference`; do not edit by hand.

use crate::catalog::DEFAULT_SEED;
use crate::gate::{RefInput, RefQuery, Reference};

/// The recorded reference of `workload`, when `seed` is the one it was
/// recorded at; any other seed has no reference and is gated by the
/// theorems alone.
pub fn lookup(workload: &str, seed: u64) -> Option<&'static Reference> {
    if seed != DEFAULT_SEED {
        return None;
    }
    REFERENCES.iter().find(|r| r.workload == workload)
}

pub static REFERENCES: &[Reference] = &[
    Reference {
        workload: "scan_chain",
        inputs: &[
            RefInput { relation: "au:t1", rows: 50000, digest: 0x801e8699b4f419c1 },
            RefInput { relation: "au:t2", rows: 50000, digest: 0xbf19d44576c80c35 },
            RefInput { relation: "sg:t1", rows: 50000, digest: 0xcf4edf377e4372d2 },
            RefInput { relation: "sg:t2", rows: 50000, digest: 0xcb3656e96f07875c },
        ],
        queries: &[
            RefQuery {
                label: "chain_i64",
                rows: 9909,
                annot_sums: [9863.0, 9886.0, 9909.0],
                col_sums: &[
                    [147694845.0, 147790234.0, 147886273.0],
                    [307362104.0, 308027160.0, 308699328.0],
                ],
            },
            RefQuery {
                label: "chain_f64",
                rows: 9787,
                annot_sums: [9740.0, 9757.0, 9787.0],
                col_sums: &[
                    [145605054.0, 145697894.0, 145790928.0],
                    [304521634.0, 305165530.0, 305816734.0],
                ],
            },
        ],
    },
    Reference {
        workload: "join_spine",
        inputs: &[
            RefInput { relation: "au:t1", rows: 10000, digest: 0x61e5075c26a5c688 },
            RefInput { relation: "au:t2", rows: 10000, digest: 0xd9be3600962206cf },
            RefInput { relation: "sg:t1", rows: 10000, digest: 0xdfdd1b54c0cab3db },
            RefInput { relation: "sg:t2", rows: 10000, digest: 0xf60d771b9eb3857d },
        ],
        queries: &[RefQuery {
            label: "spine",
            rows: 22579,
            annot_sums: [1145.0, 1241.0, 22652.0],
            col_sums: &[
                [112573143.0, 113736268.0, 114898271.0],
                [74560926.0, 76746703.0, 78980603.0],
                [112923544.0, 114080477.0, 115245077.0],
            ],
        }],
    },
    Reference {
        workload: "group_agg",
        inputs: &[
            RefInput { relation: "au:t", rows: 10000, digest: 0x12fe63d6d5e69a66 },
            RefInput { relation: "sg:t", rows: 10000, digest: 0x49587e5d1824741d },
        ],
        queries: &[RefQuery {
            label: "group_agg",
            rows: 1000,
            annot_sums: [999.0, 1000.0, 2999.0],
            col_sums: &[
                [484018.0, 499500.0, 514892.0],
                [539536.0, 4999525.0, 64523859.0],
                [1098.0, 10000.0, 125659.0],
                [1060.0, 15988.0, 15988.0],
                [115526.0, 115526.0, 130991.0],
            ],
        }],
    },
    Reference {
        workload: "tpch_ct64",
        inputs: &[
            RefInput { relation: "au:customer", rows: 82, digest: 0x00c0e68120589336 },
            RefInput { relation: "au:lineitem", rows: 3280, digest: 0x19c9d3bbf298d825 },
            RefInput { relation: "au:nation", rows: 25, digest: 0xd0f69cc145cea862 },
            RefInput { relation: "au:orders", rows: 820, digest: 0x0963094ffb789be2 },
            RefInput { relation: "au:region", rows: 5, digest: 0x802438defc140876 },
            RefInput { relation: "au:supplier", rows: 27, digest: 0x310da69c3a98449d },
            RefInput { relation: "sg:customer", rows: 82, digest: 0xb97b2652dfd129f1 },
            RefInput { relation: "sg:lineitem", rows: 3280, digest: 0x31920792a2e03152 },
            RefInput { relation: "sg:nation", rows: 25, digest: 0xeb8d8cd2768493de },
            RefInput { relation: "sg:orders", rows: 820, digest: 0x12a99454fc566c16 },
            RefInput { relation: "sg:region", rows: 5, digest: 0xbc71e72b9b97537e },
            RefInput { relation: "sg:supplier", rows: 27, digest: 0x89befa78110f7051 },
        ],
        queries: &[
            RefQuery {
                label: "q1",
                rows: 6,
                annot_sums: [6.0, 6.0, 116.0],
                col_sums: &[
                    [0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0],
                    [0.0, 80993.0, 96116.0],
                    [0.0, 170093082.64999992, 202536320.35999998],
                    [0.0, 161682551.2451, 192894723.05060002],
                    [0.0, 153.77171482206717, 96116.0],
                    [0.0, 322935.9547085248, 202536320.35999998],
                    [0.0, 3160.0, 3714.0],
                ],
            },
            RefQuery {
                label: "q3",
                rows: 77,
                annot_sums: [62.0, 65.0, 78.0],
                col_sums: &[
                    [31729.0, 31729.0, 31729.0],
                    [50458.0, 50458.0, 50458.0],
                    [39.0, 41.0, 41.0],
                    [7856465.796100002, 8598856.327300001, 25365608.21230001],
                ],
            },
            RefQuery {
                label: "q5",
                rows: 5,
                annot_sums: [4.0, 4.0, 5.0],
                col_sums: &[
                    [0.0, 0.0, 0.0],
                    [390475.62729999993, 443746.17429999996, 3560957.5533999996],
                ],
            },
            RefQuery {
                label: "q7",
                rows: 536,
                annot_sums: [413.0, 451.0, 7766264.0],
                col_sums: &[
                    [424.0, 6496.0, 12040.0],
                    [6489.0, 6489.0, 6489.0],
                    [7392493.993400001, 81759227.99020007, 416805761224055.75],
                ],
            },
            RefQuery {
                label: "q10",
                rows: 70,
                annot_sums: [55.0, 56.0, 70.0],
                col_sums: &[
                    [2654.0, 2654.0, 2654.0],
                    [7799530.500999998, 8235303.273199997, 17624870.919700008],
                ],
            },
        ],
    },
    Reference {
        workload: "serve_mix",
        inputs: &[
            RefInput { relation: "au:t1", rows: 2000, digest: 0xa233adbf47c9e315 },
            RefInput { relation: "au:t2", rows: 2000, digest: 0x66766b76d88a35d7 },
            RefInput { relation: "sg:t1", rows: 2000, digest: 0x8569647de0dcf945 },
            RefInput { relation: "sg:t2", rows: 2000, digest: 0x584b1519ec70d9f0 },
        ],
        queries: &[
            RefQuery {
                label: "proj0",
                rows: 29,
                annot_sums: [27.0, 29.0, 29.0],
                col_sums: &[[348.0, 377.0, 417.0], [65500.0, 65580.0, 65660.0]],
            },
            RefQuery {
                label: "proj1",
                rows: 37,
                annot_sums: [36.0, 37.0, 37.0],
                col_sums: &[[579.0, 608.0, 648.0], [83027.0, 83107.0, 83187.0]],
            },
            RefQuery {
                label: "proj2",
                rows: 43,
                annot_sums: [42.0, 43.0, 43.0],
                col_sums: &[[799.0, 828.0, 868.0], [97519.0, 97599.0, 97679.0]],
            },
            RefQuery {
                label: "proj3",
                rows: 47,
                annot_sums: [47.0, 47.0, 47.0],
                col_sums: &[[978.0, 1007.0, 1047.0], [106363.0, 106443.0, 106523.0]],
            },
            RefQuery {
                label: "point0",
                rows: 43,
                annot_sums: [42.0, 43.0, 43.0],
                col_sums: &[
                    [799.0, 828.0, 868.0],
                    [47716.0, 47756.0, 47796.0],
                    [49803.0, 49843.0, 49883.0],
                ],
            },
            RefQuery {
                label: "point1",
                rows: 46,
                annot_sums: [38.0, 41.0, 46.0],
                col_sums: &[
                    [6723.0, 6883.0, 7043.0],
                    [42810.0, 42970.0, 43130.0],
                    [33139.0, 33290.0, 33450.0],
                ],
            },
            RefQuery {
                label: "point2",
                rows: 56,
                annot_sums: [52.0, 53.0, 56.0],
                col_sums: &[
                    [15755.0, 15835.0, 15915.0],
                    [52038.0, 52118.0, 52198.0],
                    [54919.0, 54999.0, 55079.0],
                ],
            },
            RefQuery {
                label: "point3",
                rows: 41,
                annot_sums: [40.0, 41.0, 41.0],
                col_sums: &[
                    [16823.0, 16843.0, 16863.0],
                    [41040.0, 41060.0, 41080.0],
                    [40984.0, 41004.0, 41024.0],
                ],
            },
            RefQuery {
                label: "point4",
                rows: 44,
                annot_sums: [41.0, 41.0, 44.0],
                col_sums: &[
                    [23879.0, 23939.0, 23999.0],
                    [42642.0, 42702.0, 42762.0],
                    [50259.0, 50319.0, 50379.0],
                ],
            },
            RefQuery {
                label: "point5",
                rows: 45,
                annot_sums: [42.0, 44.0, 45.0],
                col_sums: &[
                    [30112.0, 30172.0, 30232.0],
                    [44618.0, 44678.0, 44738.0],
                    [44329.0, 44389.0, 44449.0],
                ],
            },
            RefQuery {
                label: "point6",
                rows: 54,
                annot_sums: [50.0, 51.0, 54.0],
                col_sums: &[
                    [43523.0, 43603.0, 43683.0],
                    [51703.0, 51783.0, 51863.0],
                    [54323.0, 54403.0, 54483.0],
                ],
            },
            RefQuery {
                label: "point7",
                rows: 39,
                annot_sums: [34.0, 38.0, 39.0],
                col_sums: &[
                    [36485.0, 36585.0, 36685.0],
                    [45019.0, 45119.0, 45219.0],
                    [38682.0, 38782.0, 38882.0],
                ],
            },
            RefQuery {
                label: "point8",
                rows: 54,
                annot_sums: [47.0, 49.0, 54.0],
                col_sums: &[
                    [57535.0, 57675.0, 57815.0],
                    [53712.0, 53852.0, 53992.0],
                    [53889.0, 54029.0, 54169.0],
                ],
            },
            RefQuery {
                label: "point9",
                rows: 39,
                annot_sums: [37.0, 39.0, 39.0],
                col_sums: &[
                    [46707.0, 46747.0, 46787.0],
                    [39798.0, 39838.0, 39878.0],
                    [36134.0, 36174.0, 36214.0],
                ],
            },
            RefQuery {
                label: "point10",
                rows: 36,
                annot_sums: [33.0, 35.0, 36.0],
                col_sums: &[
                    [47757.0, 47817.0, 47877.0],
                    [32357.0, 32417.0, 32477.0],
                    [30648.0, 30708.0, 30768.0],
                ],
            },
            RefQuery {
                label: "point11",
                rows: 39,
                annot_sums: [35.0, 37.0, 39.0],
                col_sums: &[
                    [56788.0, 56868.0, 56948.0],
                    [41301.0, 41381.0, 41461.0],
                    [35082.0, 35162.0, 35242.0],
                ],
            },
            RefQuery {
                label: "point12",
                rows: 40,
                annot_sums: [36.0, 38.0, 40.0],
                col_sums: &[
                    [63523.0, 63603.0, 63683.0],
                    [37958.0, 38038.0, 38118.0],
                    [42301.0, 42381.0, 42461.0],
                ],
            },
            RefQuery {
                label: "point13",
                rows: 49,
                annot_sums: [44.0, 46.0, 49.0],
                col_sums: &[
                    [84354.0, 84454.0, 84554.0],
                    [49122.0, 49222.0, 49322.0],
                    [45421.0, 45521.0, 45621.0],
                ],
            },
            RefQuery {
                label: "point14",
                rows: 39,
                annot_sums: [37.0, 39.0, 39.0],
                col_sums: &[
                    [72305.0, 72345.0, 72385.0],
                    [42603.0, 42643.0, 42683.0],
                    [40045.0, 40085.0, 40125.0],
                ],
            },
            RefQuery {
                label: "point15",
                rows: 41,
                annot_sums: [39.0, 41.0, 41.0],
                col_sums: &[
                    [876.0, 905.0, 945.0],
                    [48205.0, 48245.0, 48285.0],
                    [46437.0, 46477.0, 46517.0],
                ],
            },
            RefQuery {
                label: "except0",
                rows: 325,
                annot_sums: [307.0, 323.0, 325.0],
                col_sums: &[[50636.0, 51025.0, 51425.0], [320176.0, 320573.0, 320973.0]],
            },
            RefQuery {
                label: "except1",
                rows: 357,
                annot_sums: [336.0, 356.0, 357.0],
                col_sums: &[[60885.0, 61334.0, 61794.0], [355162.0, 355619.0, 356079.0]],
            },
            RefQuery {
                label: "agg0",
                rows: 1279,
                annot_sums: [1233.0, 1279.0, 1333.0],
                col_sums: &[
                    [1272495.0, 1274464.0, 1276419.0],
                    [1834186.0, 2007740.0, 4726609.0],
                    [1817.0, 2000.0, 4713.0],
                ],
            },
            RefQuery {
                label: "agg1",
                rows: 1279,
                annot_sums: [1233.0, 1279.0, 1333.0],
                col_sums: &[
                    [1272495.0, 1274464.0, 1276419.0],
                    [1835073.0, 2017656.0, 4876246.0],
                    [1817.0, 2000.0, 4713.0],
                ],
            },
            RefQuery {
                label: "join0",
                rows: 9930,
                annot_sums: [1856.0, 2055.0, 9961.0],
                col_sums: &[
                    [9634238.0, 9717057.0, 9799283.0],
                    [19907381.0, 20074894.0, 20242718.0],
                ],
            },
            RefQuery {
                label: "join1",
                rows: 9897,
                annot_sums: [1846.0, 2045.0, 9928.0],
                col_sums: &[
                    [9605422.0, 9688241.0, 9770467.0],
                    [19868280.0, 20035333.0, 20202701.0],
                ],
            },
        ],
    },
];
