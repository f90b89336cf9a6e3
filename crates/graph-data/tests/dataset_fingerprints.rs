//! Byte-level pins of the dataset pipeline: for one Table II recipe per
//! generator family (R-MAT, Erdős–Rényi, Barabási–Albert, road grid),
//! the cleaned graph's size and an FNV-1a-64 hash of its CSR, plus a
//! hash of every orientation's `offsets`, `targets` and `old_id` map.
//!
//! Every modelled number in the reproduction (cycle counts, counters,
//! figures) is a function of these arrays, so a change to a generator,
//! to cleaning or to an orientation builder that is meant to be a pure
//! speed-up must leave all of them unchanged. A deliberate change to a
//! recipe's output has to regenerate these constants in the same commit.

use graph_data::{orient, DatasetSpec, Orientation, UndirGraph};

/// FNV-1a, 64-bit, over the little-endian bytes of a stream of words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, words: impl IntoIterator<Item = u32>) -> &mut Self {
        for w in words {
            for byte in w.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }
}

const ORIENTATIONS: [Orientation; 5] = [
    Orientation::ById,
    Orientation::DegreeAsc,
    Orientation::DegreeDesc,
    Orientation::KCore,
    Orientation::Random(7),
];

struct Pin {
    name: &'static str,
    vertices: u32,
    edges: u64,
    cleaned: u64,
    /// One hash per entry of [`ORIENTATIONS`], in that order.
    oriented: [u64; 5],
}

fn cleaned_hash(g: &UndirGraph) -> u64 {
    let csr = g.csr();
    Fnv1a::new()
        .words(csr.offsets().iter().copied())
        .words(csr.targets().iter().copied())
        .0
}

fn oriented_hash(g: &UndirGraph, o: Orientation) -> u64 {
    let d = orient(g, o);
    Fnv1a::new()
        .words(d.csr().offsets().iter().copied())
        .words(d.csr().targets().iter().copied())
        .words((0..d.num_vertices()).map(|v| d.old_id(v)))
        .0
}

fn check(pin: &Pin) {
    let spec = DatasetSpec::by_name(pin.name).expect("Table II name");
    let g = spec.build();
    let got = Pin {
        name: pin.name,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        cleaned: cleaned_hash(&g),
        oriented: ORIENTATIONS.map(|o| oriented_hash(&g, o)),
    };
    let shown = format!(
        "{}: vertices {}, edges {}, cleaned {:#018x}, oriented [{}]",
        got.name,
        got.vertices,
        got.edges,
        got.cleaned,
        got.oriented
            .iter()
            .map(|h| format!("{h:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(got.vertices, pin.vertices, "{shown}");
    assert_eq!(got.edges, pin.edges, "{shown}");
    assert_eq!(got.cleaned, pin.cleaned, "cleaned CSR differs; {shown}");
    for (i, o) in ORIENTATIONS.iter().enumerate() {
        assert_eq!(
            got.oriented[i], pin.oriented[i],
            "{o:?} orientation differs; {shown}"
        );
    }
}

#[test]
fn email_euall_rmat() {
    check(&Pin {
        name: "Email-EuAll",
        vertices: 45_057,
        edges: 185_950,
        cleaned: 0xc2e1_a886_f32c_e231,
        oriented: [
            0x81ea_0134_e992_b8f5,
            0xa448_e76b_3118_dd37,
            0x81d7_4508_419a_013e,
            0x3b5c_6507_f168_21c1,
            0x8194_f624_8607_b093,
        ],
    });
}

#[test]
fn wiki_talk_rmat() {
    check(&Pin {
        name: "Wiki-Talk",
        vertices: 114_965,
        edges: 821_853,
        cleaned: 0x4251_b589_f431_4692,
        oriented: [
            0xbd53_bcb1_6851_4b81,
            0xb147_82f4_64aa_0d21,
            0x7382_9412_3521_18ef,
            0xb6f4_d1b0_f295_e49f,
            0xcba7_f53a_c566_da00,
        ],
    });
}

#[test]
fn p2p_gnutella31_er() {
    check(&Pin {
        name: "P2p-Gnutella31",
        vertices: 32_983,
        edges: 124_982,
        cleaned: 0xb945_6fbb_b879_fdb2,
        oriented: [
            0xac7b_e830_6b36_6f3a,
            0xde4e_543d_9d85_d55f,
            0x44c2_d86b_3bb9_e6c8,
            0x0c55_9d27_92c6_610d,
            0x712d_64b0_c2ce_0eab,
        ],
    });
}

#[test]
fn web_notredame_ba() {
    check(&Pin {
        name: "Web-NotreDame",
        vertices: 62_000,
        edges: 371_979,
        cleaned: 0x24fe_4ead_96d4_24f8,
        oriented: [
            0xf8d9_b10e_c5bd_eb71,
            0x402d_52a2_562f_407c,
            0xc41e_80bd_62ee_00c0,
            0x6857_3f70_d95f_6dc2,
            0x1e97_5694_5cc9_6ca5,
        ],
    });
}

#[test]
fn roadnet_ca_grid() {
    check(&Pin {
        name: "RoadNet-CA",
        vertices: 383_010,
        edges: 591_014,
        cleaned: 0xb285_cf1b_4176_791c,
        oriented: [
            0xb557_fb55_cd8e_3200,
            0xbb2d_86cb_d2d3_2400,
            0x663d_53e5_f504_07d1,
            0xda5e_f59f_dd18_1fd1,
            0x2003_33ab_50dc_019e,
        ],
    });
}
