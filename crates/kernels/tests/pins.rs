//! Pins the offline campaign's inputs: each of the 21 training kernels'
//! exact counts and checksum at scale 1.0, and the GA100
//! [`WorkloadSignature`](gpu_model::WorkloadSignature) derived from them.
//! Every trained model and paper table is a function of these numbers, so
//! a change to a kernel, to the parallel runtime it runs on or to the
//! signature derivation that moves one bit shows up here first.
//!
//! Values are `f64` bit patterns. BFS claims nodes through a CAS race, so
//! its frontier order varies from run to run; its counts and checksum do
//! not (each level's node set, the edge total and the sum of levels are
//! order-free), and they are pinned like the rest.

use gpu_model::DeviceSpec;
use kernels::suite::training_suite;

/// `(name, flops, bytes, checksum, signature flops, signature bytes)`.
const PINS: [(&str, u64, u64, u64, u64, u64); 21] = [
    // 16863750 844262 1124250 112675200000000 5640939275214.587
    (
        "TPACF",
        0x4170_1520_6000_0000,
        0x4129_c3cc_0000_0000,
        0x4131_279a_0000_0000,
        0x42d9_9e8f_5158_0000,
        0x4294_8588_ba0f_3a59,
    ),
    // 3114752 7077888 66353.73784718353 11750125786132.814 26700705000000.004
    (
        "STENCIL",
        0x4147_c380_0000_0000,
        0x415b_0000_0000_0000,
        0x40f0_331b_ce38_d92b,
        0x42a5_5f94_25a8_29a1,
        0x42b8_48be_096a_4001,
    ),
    // 4534272 10616832 9259.360588234778 14044632000000 32884992000000
    (
        "LBM",
        0x4151_4c00_0000_0000,
        0x4164_4000_0000_0000,
        0x40c2_15ae_27c1_59d9,
        0x42a9_8c0a_9a4c_0000,
        0x42bd_e8a2_4440_0000,
    ),
    // 3276800 6291456 279600.01291354944 10492354166666.668 20145320000000
    (
        "FFT",
        0x4149_0000_0000_0000,
        0x4158_0000_0000_0000,
        0x4111_10c0_0d39_35a2,
        0x42a3_15e2_15ff_1556,
        0x42b2_5272_a47a_0000,
    ),
    // 1920000 19520000 302.16343140705584 1604960409836.0654 16317097499999.998
    (
        "SPMV",
        0x413d_4c00_0000_0000,
        0x4172_9da0_0000_0000,
        0x4072_e29d_6a40_471b,
        0x4277_5af1_858e_c10c,
        0x42ad_ae3d_99ba_bfff,
    ),
    // 11534336 172032 856340.2680599532 302640000000000 4513806818181.818
    (
        "MRIQ",
        0x4166_0000_0000_0000,
        0x4105_0000_0000_0000,
        0x412a_2228_893f_2779,
        0x42f1_33fd_db1e_0000,
        0x4290_6bcf_686e_1746,
    ),
    // 2097152 2099200 65280 8042118368780.487 8049971999999.999
    (
        "HISTO",
        0x4140_0000_0000_0000,
        0x4140_0400_0000_0000,
        0x40ef_e000_0000_0000,
        0x429d_41ce_6f38_31f3,
        0x429d_491e_e2d3_ffff,
    ),
    // 40000 10400000 575650 18037307692.307693 4689700000000
    (
        "BFS",
        0x40e3_8800_0000_0000,
        0x4163_d620_0000_0000,
        0x4121_9144_0000_0000,
        0x4210_cc6d_e4b1_3b14,
        0x4291_0f9f_9c44_0000,
    ),
    // 111915414 206592 22716.274783954366 297911250000000 549933907763.5901
    (
        "CUTCP",
        0x419a_aec6_5800_0000,
        0x4109_3800_0000_0000,
        0x40d6_2f11_960f_705e,
        0x42f0_ef2d_e3b1_8800,
        0x4260_0153_afe6_72e2,
    ),
    // 47360000 10566144 121983.99973142406 79009150433687.08 17627155000000
    (
        "KMEANS",
        0x4186_9540_0000_0000,
        0x4164_2740_0000_0000,
        0x40fd_c7ff_fee6_60b2,
        0x42d1_f6f0_161e_65c5,
        0x42b0_0824_4fea_c000,
    ),
    // 14307328 2751409.2307692305 351.1234463016867 139214399999999.97 26771999999999.992
    (
        "LAVAMD",
        0x416b_4a00_0000_0000,
        0x4144_fdd8_9d89_d89d,
        0x4075_f1f9_a2d4_48e8,
        0x42df_a758_3703_fffe,
        0x42b8_5957_8cc7_fffe,
    ),
    // 7920000 12480000 111092.14754998974 18881767384615.383 29753087999999.996
    (
        "CFD",
        0x415e_3660_0000_0000,
        0x4167_cdc0_0000_0000,
        0x40fb_1f42_5c5d_60c7,
        0x42b1_2c41_09a6_2762,
        0x42bb_0f6e_3dbf_ffff,
    ),
    // 524288 16777216 524800 252326250000 8074440000000
    (
        "NW",
        0x4120_0000_0000_0000,
        0x4170_0000_0000_0000,
        0x4120_0400_0000_0000,
        0x424d_5fe8_8308_0000,
        0x429d_5fe8_8308_0000,
    ),
    // 3145728 6291456 5247675.36707527 8813577500000 17627155000000
    (
        "HOTSPOT",
        0x4148_0000_0000_0000,
        0x4158_0000_0000_0000,
        0x4154_04ae_d77e_2946,
        0x42a0_0824_4fea_c000,
        0x42b0_0824_4fea_c000,
    ),
    // 4700128 589824 41660.52517342869 77502999999999.98 9725932883529.979
    (
        "LUD",
        0x4151_edf8_0000_0000,
        0x4122_0000_0000_0000,
        0x40e4_5790_ce38_819e,
        0x42d1_9f44_b22d_7fff,
        0x42a1_b0fd_8c9c_93f5,
    ),
    // 2768720 341333.3333333333 3.981038098140378 81092000000000 9997183776859.582
    (
        "GE",
        0x4145_1fa8_0000_0000,
        0x4114_d555_5555_5555,
        0x400f_d92a_809d_24c9,
        0x42d2_702c_f6aa_0000,
        0x42a2_2f4d_2cf0_b72a,
    ),
    // 4423680 5308416 3317764.367918012 18350999999999.996 22021199999999.996
    (
        "SRAD",
        0x4150_e000_0000_0000,
        0x4154_4000_0000_0000,
        0x4149_5002_2f17_effb,
        0x42b0_b0ac_d615_ffff,
        0x42b4_0735_cdb3_ffff,
    ),
    // 3504384 788864 49944 90977391635242.56 20479716000000
    (
        "HEARTWALL",
        0x414a_bc80_0000_0000,
        0x4128_1300_0000_0000,
        0x40e8_6300_0000_0000,
        0x42d4_af94_c71a_caa4,
        0x42b2_a04e_3281_0000,
    ),
    // 20000 21059200 856426 3137042242.8202395 3303179999999.9995
    (
        "BPLUSTREE",
        0x40d3_8800_0000_0000,
        0x4174_1568_0000_0000,
        0x412a_22d4_0000_0000,
        0x41e7_5f6e_e85a_3f67,
        0x4288_08a6_f6d7_ffff,
    ),
    // 14155776 884736 1016.9461481838515 225767500000000 14110468750000
    (
        "DGEMM",
        0x416b_0000_0000_0000,
        0x412b_0000_0000_0000,
        0x408f_c791_b623_967f,
        0x42e9_aab2_f475_6000,
        0x42a9_aab2_f475_6000,
    ),
    // 4194304 83886080 67108174.75 1740490399999.9998 34809807999999.996
    (
        "STREAM",
        0x4150_0000_0000_0000,
        0x4194_0000_0000_0000,
        0x418f_ffea_7600_0000,
        0x4279_53d4_fe0f_ffff,
        0x42bf_a8ca_3d93_ffff,
    ),
];

#[test]
fn training_kernels_match_their_pinned_counts_and_signatures() {
    let spec = DeviceSpec::ga100();
    let suite = training_suite();
    assert_eq!(suite.len(), PINS.len());
    let mut wrong = Vec::new();
    for (kernel, &(name, flops, bytes, checksum, sig_flops, sig_bytes)) in suite.iter().zip(&PINS) {
        assert_eq!(kernel.name(), name, "suite order changed");
        let stats = kernel.run(1.0);
        let sig = kernel.signature(&spec);
        for (what, got, want) in [
            ("flops", stats.flops, flops),
            ("bytes", stats.bytes, bytes),
            ("checksum", stats.checksum, checksum),
            ("signature flops", sig.flops, sig_flops),
            ("signature bytes", sig.bytes, sig_bytes),
        ] {
            if got.to_bits() != want {
                wrong.push(format!(
                    "{name} {what}: {got:e} ({:#018x}), pinned {:e} ({want:#018x})",
                    got.to_bits(),
                    f64::from_bits(want)
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "kernel pins moved:\n{}", wrong.join("\n"));
}
