//! RDF, RDFS, and XSD vocabulary IRIs used by the substrate.

/// `rdf:type` — attaches types to RDF nodes (Section 2 of the paper).
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// `rdfs:subClassOf`.
pub const RDFS_SUBCLASSOF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
/// `rdfs:subPropertyOf`.
pub const RDFS_SUBPROPERTYOF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
/// `rdfs:domain`.
pub const RDFS_DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
/// `rdfs:range`.
pub const RDFS_RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";

pub(crate) const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
pub(crate) const XSD_INT: &str = "http://www.w3.org/2001/XMLSchema#int";
pub(crate) const XSD_LONG: &str = "http://www.w3.org/2001/XMLSchema#long";
pub(crate) const XSD_NONNEG_INTEGER: &str =
    "http://www.w3.org/2001/XMLSchema#nonNegativeInteger";
pub(crate) const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
pub(crate) const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
pub(crate) const XSD_FLOAT: &str = "http://www.w3.org/2001/XMLSchema#float";
pub(crate) const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
pub(crate) const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
pub(crate) const XSD_DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
pub(crate) const XSD_DATETIME: &str = "http://www.w3.org/2001/XMLSchema#dateTime";
pub(crate) const XSD_GYEAR: &str = "http://www.w3.org/2001/XMLSchema#gYear";
