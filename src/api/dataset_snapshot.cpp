#include "api/dataset_snapshot.h"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "data/snapshot.h"
#include "factor/agg_cache.h"
#include "factor/model_cache.h"

namespace reptile {
namespace {

std::string SchemaSection(const PreparedDataset& dataset) {
  const Dataset& data = dataset.data();
  const Table& table = data.table();
  ByteWriter w;
  w.U32(static_cast<uint32_t>(data.num_hierarchies()));
  for (int h = 0; h < data.num_hierarchies(); ++h) {
    const HierarchySchema& schema = data.hierarchy(h);
    w.Str(schema.name);
    w.U32(static_cast<uint32_t>(schema.attributes.size()));
    for (const std::string& attr : schema.attributes) w.Str(attr);
  }
  w.U32(static_cast<uint32_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    w.Str(table.column_name(c));
    w.U8(table.is_dimension(c) ? 1 : 0);
  }
  w.U64(table.num_rows());
  return w.TakeBytes();
}

std::string DictSection(const ValueDict& dict) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(dict.size()));
  for (int32_t code = 0; code < dict.size(); ++code) w.Str(dict.name(code));
  return w.TakeBytes();
}

std::string FTreesSection(const PreparedDataset& dataset) {
  // Version chains share one cache object, so the walk filters to the keys
  // THIS version reads: entries whose epoch matches the dataset's epoch
  // table. The wire form stays (hierarchy, depth) — a restore re-prepares
  // the dataset as version 1 of a fresh chain (all-1 epochs; lineage is NOT
  // persisted), so the epoch component would be meaningless on disk.
  ByteWriter w;
  std::vector<std::pair<AggregateKey, HierarchyAggregatesPtr>> persisted;
  for (auto& item : dataset.cache().Items()) {
    const auto& [epoch, hierarchy, depth] = item.first;
    if (epoch != dataset.epochs().at(hierarchy, depth)) continue;
    persisted.push_back(std::move(item));
  }
  w.U32(static_cast<uint32_t>(persisted.size()));
  for (const auto& [key, entry] : persisted) {
    w.I32(std::get<1>(key));
    w.I32(std::get<2>(key));
    const FTree& tree = *entry->tree;
    w.U32(static_cast<uint32_t>(tree.depth()));
    for (int l = 0; l < tree.depth(); ++l) {
      w.VecI32(tree.level(l).value);
      w.VecI64(tree.level(l).parent);
    }
  }
  return w.TakeBytes();
}

std::string ModelsSection(const PreparedDataset& dataset) {
  // Same filter for fitted models: keep only this version's keys, with the
  // version component STRIPPED on write so the restored dataset — version 1
  // again — finds them warm under its own spelling.
  ByteWriter w;
  std::vector<std::pair<std::string, FittedModelPtr>> persisted;
  for (auto& [key, model] : dataset.model_cache().Items()) {
    // '#'-prefixed feature partitions are process-unique (custom features
    // have no content identity): no future process can ever compute such a
    // key, so persisting the entry would be dead weight.
    if (!key.empty() && key[0] == '#') continue;
    std::optional<size_t> length = VersionlessModelKeyLength(key, dataset.version_token());
    if (!length.has_value()) continue;  // another version's fits
    persisted.emplace_back(key.substr(0, *length), std::move(model));
  }
  w.U32(static_cast<uint32_t>(persisted.size()));
  for (const auto& [key, model] : persisted) {
    w.Str(key);
    w.VecF64(model->fitted);
    w.F64(model->fit_seconds);
    w.I32(model->em_iterations_run);
  }
  return w.TakeBytes();
}

Status LoadCaches(const SnapshotReader& reader, const PreparedDataset& dataset) {
  const Dataset& data = dataset.data();
  {
    Result<ByteReader> section = reader.Find("ftrees");
    if (!section.ok()) return section.status();
    ByteReader& r = *section;
    uint32_t count = r.U32();
    for (uint32_t i = 0; i < count && r.status().ok(); ++i) {
      int32_t hierarchy = r.I32();
      int32_t depth = r.I32();
      if (!r.status().ok()) break;
      if (hierarchy < 0 || hierarchy >= data.num_hierarchies() || depth < 1 ||
          depth > data.hierarchy(hierarchy).depth()) {
        r.Fail("aggregate key (" + std::to_string(hierarchy) + ", " +
               std::to_string(depth) + ") does not fit the dataset's hierarchies");
        break;
      }
      uint32_t tree_depth = r.U32();
      if (tree_depth != static_cast<uint32_t>(depth)) {
        r.Fail("f-tree depth disagrees with its cache key");
        break;
      }
      std::vector<FTree::Level> levels(tree_depth);
      for (uint32_t l = 0; l < tree_depth; ++l) {
        levels[l].value = r.VecI32();
        levels[l].parent = r.VecI64();
      }
      if (!r.status().ok()) break;
      // Values must be codes of the hierarchy's columns — downstream key
      // formatting indexes the dictionaries with them.
      std::vector<int> columns = data.HierarchyColumns(hierarchy, depth);
      for (uint32_t l = 0; l < tree_depth && r.status().ok(); ++l) {
        int32_t cardinality = data.table().dict(columns[l]).size();
        for (int32_t value : levels[l].value) {
          if (value < 0 || value >= cardinality) {
            r.Fail("f-tree value outside its column's dictionary");
            break;
          }
        }
      }
      if (!r.status().ok()) break;
      Result<FTree> tree = FTree::FromLevels(std::move(levels));
      if (!tree.ok()) return tree.status();
      HierarchyAggregates built;
      built.tree = std::make_unique<FTree>(std::move(tree).value());
      built.locals = std::make_unique<LocalAggregates>(built.tree.get());
      const AggregateKey key(1, hierarchy, depth);  // a restored dataset is version 1
      const size_t bytes = ApproxHierarchyAggregatesBytes(key, built);
      dataset.cache().Insert(key, std::make_shared<const HierarchyAggregates>(std::move(built)),
                             bytes);
    }
    if (!r.status().ok()) return r.status();
    if (!r.AtEnd()) return Status::ParseError("corrupt snapshot: trailing bytes in 'ftrees'");
  }
  {
    Result<ByteReader> section = reader.Find("models");
    if (!section.ok()) return section.status();
    ByteReader& r = *section;
    uint32_t count = r.U32();
    for (uint32_t i = 0; i < count && r.status().ok(); ++i) {
      std::string key = r.Str();
      FittedModel model;
      model.fitted = r.VecF64();
      model.fit_seconds = r.F64();
      model.em_iterations_run = r.I32();
      if (!r.status().ok()) break;
      if (key.empty() || key[0] == '#') {
        r.Fail("fitted-model entry with an unpersistable key");
        break;
      }
      const size_t bytes = ApproxFittedModelBytes(key, model);
      dataset.model_cache().Insert(key, std::make_shared<const FittedModel>(std::move(model)),
                                   bytes);
    }
    if (!r.status().ok()) return r.status();
    if (!r.AtEnd()) return Status::ParseError("corrupt snapshot: trailing bytes in 'models'");
  }
  return Status::Ok();
}

}  // namespace

Status SavePreparedDataset(const PreparedDataset& dataset, const std::string& path) {
  const Table& table = dataset.table();
  SnapshotWriter writer;
  writer.AddSection("schema", SchemaSection(dataset));
  for (int c = 0; c < table.num_columns(); ++c) {
    if (table.is_dimension(c)) {
      writer.AddSection("dict:" + std::to_string(c), DictSection(table.dict(c)));
    }
    ByteWriter w;
    if (table.is_dimension(c)) {
      w.VecI32(table.dim_codes(c));
    } else {
      w.VecF64(table.measure(c));
    }
    writer.AddSection("col:" + std::to_string(c), w.TakeBytes());
  }
  writer.AddSection("ftrees", FTreesSection(dataset));
  writer.AddSection("models", ModelsSection(dataset));
  return writer.WriteFile(path);
}

Result<DatasetHandle> LoadPreparedDataset(const std::string& path) {
  Result<SnapshotReader> opened = SnapshotReader::Open(path);
  if (!opened.ok()) return opened.status();
  const SnapshotReader& reader = *opened;

  Result<ByteReader> schema_section = reader.Find("schema");
  if (!schema_section.ok()) return schema_section.status();
  ByteReader& schema = *schema_section;

  std::vector<HierarchySchema> hierarchies(schema.U32());
  for (HierarchySchema& h : hierarchies) {
    h.name = schema.Str();
    h.attributes.resize(schema.U32());
    for (std::string& attr : h.attributes) attr = schema.Str();
    if (!schema.status().ok()) return schema.status();
  }
  uint32_t num_columns = schema.U32();
  Table table;
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string name = schema.Str();
    bool is_dimension = schema.U8() != 0;
    if (!schema.status().ok()) return schema.status();
    if (is_dimension) {
      table.AddDimensionColumn(name);
    } else {
      table.AddMeasureColumn(name);
    }
  }
  uint64_t num_rows = schema.U64();
  if (!schema.status().ok()) return schema.status();
  if (!schema.AtEnd()) return Status::ParseError("corrupt snapshot: trailing bytes in 'schema'");

  for (uint32_t c = 0; c < num_columns; ++c) {
    Result<ByteReader> column_section = reader.Find("col:" + std::to_string(c));
    if (!column_section.ok()) return column_section.status();
    ByteReader& col = *column_section;
    if (table.is_dimension(static_cast<int>(c))) {
      Result<ByteReader> dict_section = reader.Find("dict:" + std::to_string(c));
      if (!dict_section.ok()) return dict_section.status();
      ByteReader& d = *dict_section;
      std::vector<std::string> names(d.U32());
      for (std::string& name : names) name = d.Str();
      if (!d.status().ok()) return d.status();
      Result<ValueDict> dict = ValueDict::FromNames(std::move(names));
      if (!dict.ok()) return dict.status();
      std::vector<int32_t> codes = col.VecI32();
      if (!col.status().ok()) return col.status();
      REPTILE_RETURN_IF_ERROR(table.SetDimensionColumnData(
          static_cast<int>(c), std::move(dict).value(), std::move(codes)));
    } else {
      std::vector<double> values = col.VecF64();
      // The same contract as CSV ingest: a non-finite measure is a parse
      // error, never a value the models silently train on.
      for (size_t row = 0; row < values.size() && col.status().ok(); ++row) {
        if (!std::isfinite(values[row])) {
          col.Fail("non-finite measure at row " + std::to_string(row));
        }
      }
      if (!col.status().ok()) return col.status();
      REPTILE_RETURN_IF_ERROR(table.SetMeasureColumnData(static_cast<int>(c),
                                                         std::move(values)));
    }
  }
  REPTILE_RETURN_IF_ERROR(table.FinishColumnLoad());
  if (table.num_rows() != num_rows) {
    return Status::ParseError("corrupt snapshot: row count disagrees with the schema");
  }

  Result<Dataset> dataset = Dataset::Make(std::move(table), std::move(hierarchies));
  if (!dataset.ok()) return dataset.status();
  Result<DatasetHandle> handle = PreparedDataset::Prepare(std::move(dataset).value());
  if (!handle.ok()) return handle.status();
  REPTILE_RETURN_IF_ERROR(LoadCaches(reader, **handle));
  return handle;
}

}  // namespace reptile
