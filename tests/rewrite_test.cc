#include <gtest/gtest.h>

#include <chrono>
#include <functional>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/rewrite/filter.h"
#include "src/rewrite/method_editor.h"
#include "src/runtime/machine.h"
#include "src/runtime/syslib.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"

namespace dvm {
namespace {

ClassFile MustBuild(ClassBuilder& cb) {
  auto built = cb.Build();
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().ToString());
  return std::move(built).value();
}

// A loop method whose first instruction is a backward-branch target, to
// exercise the "guard runs once" insertion semantics.
ClassFile BuildLoopClass() {
  ClassBuilder cb("rw/Loop", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.PushInt(0).StoreLocal("I", 1);
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.LoadLocal("I", 1).LoadLocal("I", 0).Emit(Op::kIadd).StoreLocal("I", 1);
  m.Emit(Op::kIinc, 0, -1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done).LoadLocal("I", 1).Emit(Op::kIreturn);
  return MustBuild(cb);
}

int RunF(const ClassFile& cls, int arg) {
  MapClassProvider provider;
  InstallSystemLibrary(provider);
  provider.AddClassFile(cls);
  Machine machine({}, &provider);
  auto out = machine.CallStatic(cls.name(), "f", "(I)I", {Value::Int(arg)});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().ToString());
  EXPECT_FALSE(out->threw) << out->exception_class;
  return out->value.AsInt();
}

TEST(MethodEditorTest, InsertAtEntryPreservesSemantics) {
  ClassFile cls = BuildLoopClass();
  int before = RunF(cls, 10);

  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  // Harmless preamble: push + pop.
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 42, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());

  EXPECT_EQ(RunF(cls, 10), before);
}

TEST(MethodEditorTest, BackwardBranchSkipsInsertedCode) {
  // Count how many times the preamble executes by making it increment a
  // static counter; a back edge to the old first instruction must not re-run
  // the preamble.
  ClassBuilder cb("rw/Guard", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic | AccessFlags::kPublic, "count", "I");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label loop = m.NewLabel(), done = m.NewLabel();
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfle, done);
  m.Emit(Op::kIinc, 0, -1);
  m.Branch(Op::kGoto, loop);
  m.Bind(done).GetStatic("rw/Guard", "count", "I").Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);

  MethodInfo* method = cls.FindMethod("f", "(I)I");
  uint16_t counter = cls.pool().AddFieldRef("rw/Guard", "count", "I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor
                  ->InsertBefore(0, {{Op::kGetstatic, counter, 0},
                                     {Op::kIconst1, 0, 0},
                                     {Op::kIadd, 0, 0},
                                     {Op::kPutstatic, counter, 0}})
                  .ok());
  ASSERT_TRUE(editor->Commit().ok());

  // Loop runs 5 iterations; preamble must execute exactly once.
  EXPECT_EQ(RunF(cls, 5), 1);
}

TEST(MethodEditorTest, RewrittenClassStillVerifies) {
  ClassFile cls = BuildLoopClass();
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 1, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());

  ClassBuilder obj_cb("java/lang/Object", "");
  obj_cb.AddDefaultConstructor();
  ClassFile object = MustBuild(obj_cb);
  MapClassEnv env;
  env.Add(&object);
  auto verified = VerifyClass(cls, env);
  EXPECT_TRUE(verified.ok()) << (verified.ok() ? "" : verified.error().ToString());
}

TEST(MethodEditorTest, HandlerRangesShiftWithCode) {
  ClassBuilder cb("rw/Handler", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  Label start = m.NewLabel(), end = m.NewLabel(), handler = m.NewLabel();
  m.Bind(start);
  m.PushInt(10).LoadLocal("I", 0).Emit(Op::kIdiv).Emit(Op::kIreturn);
  m.Bind(end);
  m.Bind(handler);
  m.Emit(Op::kPop).PushInt(-1).Emit(Op::kIreturn);
  m.AddHandler(start, end, handler, "java/lang/ArithmeticException");
  ClassFile cls = MustBuild(cb);

  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, 9, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());

  EXPECT_EQ(RunF(cls, 2), 5);    // normal path
  EXPECT_EQ(RunF(cls, 0), -1);   // divide by zero caught by shifted handler
}

TEST(MethodEditorTest, MaxStackGrowsWhenNeeded) {
  ClassFile cls = BuildLoopClass();
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  uint16_t old_stack = method->code->max_stack;
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  std::vector<Instr> deep;
  for (int i = 0; i < 6; i++) {
    deep.push_back({Op::kBipush, i, 0});
  }
  for (int i = 0; i < 5; i++) {
    deep.push_back({Op::kIadd, 0, 0});
  }
  deep.push_back({Op::kPop, 0, 0});
  ASSERT_TRUE(editor->InsertBefore(0, deep).ok());
  ASSERT_TRUE(editor->Commit().ok());
  EXPECT_GE(method->code->max_stack, 6);
  EXPECT_GT(method->code->max_stack, old_stack);
  EXPECT_EQ(RunF(cls, 4), 10);
}

TEST(MethodEditorTest, ReplaceSwapsInstruction) {
  ClassBuilder cb("rw/Rep", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "(I)I");
  m.LoadLocal("I", 0).PushInt(3).Emit(Op::kIadd).Emit(Op::kIreturn);
  ClassFile cls = MustBuild(cb);
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  // Replace iadd (index 2) with isub.
  ASSERT_TRUE(editor->Replace(2, {{Op::kIsub, 0, 0}}).ok());
  ASSERT_TRUE(editor->Commit().ok());
  EXPECT_EQ(RunF(cls, 10), 7);
}

TEST(MethodEditorTest, OpenFailsOnBodylessMethod) {
  ClassBuilder cb("rw/Nat", "java/lang/Object");
  cb.AddNativeMethod(AccessFlags::kStatic, "n", "()V");
  ClassFile cls = MustBuild(cb);
  EXPECT_FALSE(MethodEditor::Open(&cls, cls.FindMethod("n", "()V")).ok());
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// `iconst_0; goto 0` reaches instruction 0 one slot deeper than it entered,
// so the walk fails at that merge instead of walking the loop again deeper.
TEST(MethodEditorTest, StackGrowingLoopFailsPromptly) {
  const std::vector<Instr> loop = {{Op::kIconst0, 0, 0}, {Op::kGoto, 0, 0}};
  ConstantPool pool;
  auto start = std::chrono::steady_clock::now();
  auto depth = ComputeMaxStackDepth(loop, pool, {});
  EXPECT_LT(SecondsSince(start), 5.0);
  ASSERT_FALSE(depth.ok());
  EXPECT_EQ(depth.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(depth.error().message, "inconsistent stack depth at instruction 0");

  // Every rewrite of such a body recomputes max_stack in Commit.
  ClassFile cls = BuildLoopClass();
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  method->code->code = EncodeCode(loop).value();
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, {{Op::kNop, 0, 0}}).ok());
  start = std::chrono::steady_clock::now();
  Status committed = editor->Commit();
  EXPECT_LT(SecondsSince(start), 5.0);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.error().code, ErrorCode::kInvalidArgument);
}

// A loop body of ~30,000 instructions that pushes once per trip: a walk that
// rescheduled each instruction whenever it arrived deeper would take up to
// 65535 trips around it (about 2e9 visits) before failing. One visit per
// instruction fails it at the back edge.
TEST(MethodEditorTest, LongStackGrowingLoopFailsInOneWalk) {
  std::vector<Instr> loop(30'000, Instr{Op::kNop, 0, 0});
  loop.front() = {Op::kIconst0, 0, 0};
  loop.back() = {Op::kGoto, 0, 0};
  ConstantPool pool;
  auto start = std::chrono::steady_clock::now();
  auto depth = ComputeMaxStackDepth(loop, pool, {});
  EXPECT_LT(SecondsSince(start), 1.0);
  ASSERT_FALSE(depth.ok());
  EXPECT_EQ(depth.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(depth.error().message, "inconsistent stack depth at instruction 0");
}

// Handler pcs are u16 on the wire. Growing a 65,534-byte body whose handler
// covers [0, 65532) -> 65532 by 8 bytes would move its end and entry past
// 65535; Commit must refuse rather than truncate them to [8, 4) -> 4.
TEST(MethodEditorTest, HandlerPcPastU16IsCapacityError) {
  std::vector<Instr> body(65532, Instr{Op::kNop, 0, 0});
  body.back() = {Op::kReturn, 0, 0};  // no fall-through into the handler
  body.push_back({Op::kPop, 0, 0});   // handler entry: drop the exception
  body.push_back({Op::kReturn, 0, 0});
  auto build = [&body] {
    ClassBuilder cb("rw/Big", "java/lang/Object");
    cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()V").Emit(Op::kReturn);
    ClassFile cls = MustBuild(cb);
    CodeAttr& code = *cls.FindMethod("f", "()V")->code;
    code.code = EncodeCode(body).value();
    ExceptionHandler handler;
    handler.start_pc = 0;
    handler.end_pc = 65532;
    handler.handler_pc = 65532;
    code.handlers = {handler};
    return cls;
  };
  const std::vector<Instr> eight_bytes = {
      {Op::kSipush, 1, 0}, {Op::kPop, 0, 0}, {Op::kSipush, 2, 0}, {Op::kPop, 0, 0}};

  ClassFile cls = build();
  MethodInfo* method = cls.FindMethod("f", "()V");
  ASSERT_EQ(method->code->code.size(), 65534u);
  auto editor = MethodEditor::Open(&cls, method);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(editor->InsertBefore(0, eight_bytes).ok());
  Status committed = editor->Commit();
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.error().code, ErrorCode::kCapacity);
  EXPECT_EQ(method->code->handlers[0].end_pc, 65532);  // the method is left as it was

  // Two bytes keep every pc in range, and the handler moves with its code.
  ClassFile fits = build();
  MethodInfo* small = fits.FindMethod("f", "()V");
  auto small_editor = MethodEditor::Open(&fits, small);
  ASSERT_TRUE(small_editor.ok());
  ASSERT_TRUE(small_editor->InsertBefore(0, {{Op::kIconst0, 0, 0}, {Op::kPop, 0, 0}}).ok());
  ASSERT_TRUE(small_editor->Commit().ok());
  ASSERT_EQ(small->code->handlers.size(), 1u);
  EXPECT_EQ(small->code->handlers[0].start_pc, 2);
  EXPECT_EQ(small->code->handlers[0].end_pc, 65534);
  EXPECT_EQ(small->code->handlers[0].handler_pc, 65534);
}

// --- entry splices ------------------------------------------------------------

// The verification filter's proof of `cls`, checked against the class alone
// and a bare java/lang/Object.
ClassProof Prove(const ClassFile& cls) {
  ClassBuilder obj_cb("java/lang/Object", "");
  obj_cb.AddDefaultConstructor();
  ClassFile object = MustBuild(obj_cb);
  MapClassEnv env;
  env.Add(&object);
  env.Add(&cls);
  ClassCertificate cert;
  auto verified = VerifyClass(cls, env, &cert);
  EXPECT_TRUE(verified.ok()) << (verified.ok() ? "" : verified.error().ToString());
  return ClassProof::Of(cls, std::move(cert));
}

// What one editor session left in a method, for comparing the splice path
// with the decoding path.
struct EditResult {
  Status status;
  bool decoded = false;
  CodeAttr code;
  std::vector<CodeEdit> edits;
};

// Opens `name`'s body in a copy of `cls`, decoding it first when asked (the
// decoding path), and runs `edit` on the editor before committing.
EditResult EditCopy(const ClassFile& cls, const std::string& name, const std::string& descriptor,
                    const ClassProof* proof, bool decode_first,
                    const std::function<Status(MethodEditor&)>& edit) {
  ClassFile copy = cls;
  MethodInfo* method = copy.FindMethod(name, descriptor);
  auto editor = MethodEditor::Open(&copy, method, proof);
  EXPECT_TRUE(editor.ok());
  EditResult out;
  if (decode_first) {
    editor->code();
  }
  out.status = edit(*editor);
  if (out.status.ok()) {
    out.status = editor->Commit(&out.edits);
  }
  out.decoded = editor->decoded();
  out.code = *method->code;
  return out;
}

void ExpectSameEdit(const EditResult& spliced, const EditResult& decoded) {
  ASSERT_EQ(spliced.status.ok(), decoded.status.ok());
  if (!spliced.status.ok()) {
    EXPECT_EQ(spliced.status.error().ToString(), decoded.status.error().ToString());
    return;
  }
  EXPECT_EQ(spliced.code.code, decoded.code.code);
  ASSERT_EQ(spliced.code.handlers.size(), decoded.code.handlers.size());
  for (size_t h = 0; h < spliced.code.handlers.size(); h++) {
    EXPECT_EQ(spliced.code.handlers[h].start_pc, decoded.code.handlers[h].start_pc);
    EXPECT_EQ(spliced.code.handlers[h].end_pc, decoded.code.handlers[h].end_pc);
    EXPECT_EQ(spliced.code.handlers[h].handler_pc, decoded.code.handlers[h].handler_pc);
    EXPECT_EQ(spliced.code.handlers[h].catch_type, decoded.code.handlers[h].catch_type);
  }
  EXPECT_EQ(spliced.code.max_stack, decoded.code.max_stack);
  EXPECT_EQ(spliced.code.max_locals, decoded.code.max_locals);
  ASSERT_EQ(spliced.edits.size(), decoded.edits.size());
}

// A verification guard's shape: a static flag read, a skip to the body's
// first instruction, and a store, the whole of it in front of the body.
std::vector<Instr> GuardLike(uint16_t flag) {
  return {{Op::kGetstatic, flag, 0},
          {Op::kIfne, 4, 0},
          {Op::kIconst1, 0, 0},
          {Op::kPutstatic, flag, 0}};
}

TEST(MethodEditorSpliceTest, EntryInsertOnProvedBodyNeverDecodes) {
  ClassFile cls = BuildLoopClass();
  cls.fields.push_back(
      FieldInfo{static_cast<uint16_t>(AccessFlags::kStatic | AccessFlags::kPublic), "g", "I", {}});
  const uint16_t flag = cls.pool().AddFieldRef("rw/Loop", "g", "I");
  const ClassProof proof = Prove(cls);
  const int before = RunF(cls, 10);

  auto insert = [&](MethodEditor& editor) -> Status {
    DVM_RETURN_IF_ERROR(editor.InsertBefore(0, GuardLike(flag)));
    return editor.InsertBefore(0, {{Op::kBipush, 42, 0}, {Op::kIstore, 3, 0}});
  };
  EditResult spliced = EditCopy(cls, "f", "(I)I", &proof, false, insert);
  EditResult decoded = EditCopy(cls, "f", "(I)I", &proof, true, insert);
  ASSERT_TRUE(spliced.status.ok()) << spliced.status.error().ToString();
  EXPECT_FALSE(spliced.decoded);
  EXPECT_TRUE(decoded.decoded);
  ExpectSameEdit(spliced, decoded);
  EXPECT_EQ(spliced.code.max_locals, 4);

  ClassFile edited = cls;
  *edited.FindMethod("f", "(I)I")->code = spliced.code;
  EXPECT_EQ(RunF(edited, 10), before);
}

// Each Fig. 6 filter commits its own editor; the second splice finds the
// first one's code in front of the proved body and splices again.
TEST(MethodEditorSpliceTest, SecondSpliceOverFirstStillSplices) {
  ClassFile cls = BuildLoopClass();
  const ClassProof proof = Prove(cls);
  MethodInfo* method = cls.FindMethod("f", "(I)I");
  for (int round = 0; round < 2; round++) {
    auto editor = MethodEditor::Open(&cls, method, &proof);
    ASSERT_TRUE(editor.ok());
    ASSERT_TRUE(editor->InsertBefore(0, {{Op::kBipush, round, 0}, {Op::kPop, 0, 0}}).ok());
    ASSERT_TRUE(editor->Commit().ok());
    EXPECT_FALSE(editor->decoded()) << "round " << round;
  }
  EXPECT_EQ(RunF(cls, 10), 55);
}

TEST(MethodEditorSpliceTest, ReplaceMidBodyInsertAndUnprovedBodiesTakeTheWalk) {
  ClassFile cls = BuildLoopClass();
  const ClassProof proof = Prove(cls);
  const std::vector<Instr> nop_pair = {{Op::kBipush, 7, 0}, {Op::kPop, 0, 0}};

  EditResult replaced = EditCopy(cls, "f", "(I)I", &proof, false, [](MethodEditor& editor) {
    return editor.Replace(0, {{Op::kIconst1, 0, 0}});
  });
  ASSERT_TRUE(replaced.status.ok());
  EXPECT_TRUE(replaced.decoded);

  EditResult mid = EditCopy(cls, "f", "(I)I", &proof, false, [&](MethodEditor& editor) {
    return editor.InsertBefore(2, nop_pair);
  });
  ASSERT_TRUE(mid.status.ok());
  EXPECT_TRUE(mid.decoded);

  auto entry = [&](MethodEditor& editor) { return editor.InsertBefore(0, nop_pair); };
  EditResult unproved = EditCopy(cls, "f", "(I)I", nullptr, false, entry);
  ASSERT_TRUE(unproved.status.ok());
  EXPECT_TRUE(unproved.decoded);

  // A body changed since it was proved is not the proved body.
  ClassFile changed = cls;
  changed.FindMethod("f", "(I)I")->code->code[0] = static_cast<uint8_t>(Op::kIconst1);
  EditResult stale = EditCopy(changed, "f", "(I)I", &proof, false, entry);
  ASSERT_TRUE(stale.status.ok());
  EXPECT_TRUE(stale.decoded);

  // An entry insertion followed by a decode (the profiler's exits) sees the
  // body behind the inserted code, with its branches moved.
  auto entry_then_exit = [&](MethodEditor& editor) -> Status {
    DVM_RETURN_IF_ERROR(editor.InsertBefore(0, nop_pair));
    const size_t last = editor.code().size() - 1;
    EXPECT_EQ(editor.code()[last].op, Op::kIreturn);
    return editor.InsertBefore(last, nop_pair);
  };
  EditResult lazy = EditCopy(cls, "f", "(I)I", &proof, false, entry_then_exit);
  EditResult eager = EditCopy(cls, "f", "(I)I", &proof, true, entry_then_exit);
  EXPECT_TRUE(lazy.decoded);
  ExpectSameEdit(lazy, eager);
  ClassFile edited = cls;
  *edited.FindMethod("f", "(I)I")->code = lazy.code;
  EXPECT_EQ(RunF(edited, 10), 55);
}

TEST(MethodEditorSpliceTest, EntryCodeLeavingAValueFallsBackToTheWalk) {
  ClassFile cls = BuildLoopClass();
  const ClassProof proof = Prove(cls);
  auto push = [](MethodEditor& editor) {
    return editor.InsertBefore(0, {{Op::kBipush, 5, 0}});
  };
  EditResult with_proof = EditCopy(cls, "f", "(I)I", &proof, false, push);
  EditResult walked = EditCopy(cls, "f", "(I)I", nullptr, false, push);
  ASSERT_TRUE(with_proof.status.ok());
  EXPECT_TRUE(with_proof.decoded);
  ExpectSameEdit(with_proof, walked);

  // Today's max_stack: the walk over the whole decoded body.
  std::vector<Instr> whole = {{Op::kBipush, 5, 0}};
  const std::vector<Instr> body = DecodeCode(cls.FindMethod("f", "(I)I")->code->code)->instrs;
  for (Instr instr : body) {
    if (IsBranch(instr.op)) {
      instr.a += 1;
    }
    whole.push_back(instr);
  }
  auto depth = ComputeMaxStackDepth(whole, cls.pool(), {});
  ASSERT_TRUE(depth.ok());
  EXPECT_EQ(with_proof.code.max_stack,
            std::max(cls.FindMethod("f", "(I)I")->code->max_stack, *depth));

  // A branch from entry code into the body also needs the decoded body.
  EditResult into_body = EditCopy(cls, "f", "(I)I", &proof, false, [](MethodEditor& editor) {
    return editor.InsertBefore(0, {{Op::kGoto, 3, 0}});
  });
  ASSERT_TRUE(into_body.status.ok());
  EXPECT_TRUE(into_body.decoded);
}

// HandlerPcPastU16IsCapacityError on the splice path: the same 65,534-byte
// body, proved, grown in front without being decoded.
TEST(MethodEditorSpliceTest, HandlerPcPastU16IsCapacityErrorWhenSpliced) {
  std::vector<Instr> body(65532, Instr{Op::kNop, 0, 0});
  body.back() = {Op::kReturn, 0, 0};
  body.push_back({Op::kPop, 0, 0});
  body.push_back({Op::kReturn, 0, 0});
  ClassBuilder cb("rw/Big", "java/lang/Object");
  cb.AddMethod(AccessFlags::kStatic | AccessFlags::kPublic, "f", "()V").Emit(Op::kReturn);
  ClassFile cls = MustBuild(cb);
  CodeAttr& code = *cls.FindMethod("f", "()V")->code;
  code.code = EncodeCode(body).value();
  code.max_stack = 1;
  ExceptionHandler handler;
  handler.start_pc = 0;
  handler.end_pc = 65532;
  handler.handler_pc = 65532;
  code.handlers = {handler};
  const ClassProof proof = Prove(cls);

  EditResult grown = EditCopy(cls, "f", "()V", &proof, false, [](MethodEditor& editor) {
    return editor.InsertBefore(0, {{Op::kSipush, 1, 0},
                                   {Op::kPop, 0, 0},
                                   {Op::kSipush, 2, 0},
                                   {Op::kPop, 0, 0}});
  });
  ASSERT_FALSE(grown.status.ok());
  EXPECT_EQ(grown.status.error().code, ErrorCode::kCapacity);
  EXPECT_FALSE(grown.decoded);
  EXPECT_EQ(grown.code.handlers[0].end_pc, 65532);  // the method is left as it was
  EXPECT_EQ(grown.code.code.size(), 65534u);

  EditResult fits = EditCopy(cls, "f", "()V", &proof, false, [](MethodEditor& editor) {
    return editor.InsertBefore(0, {{Op::kIconst0, 0, 0}, {Op::kPop, 0, 0}});
  });
  ASSERT_TRUE(fits.status.ok());
  EXPECT_FALSE(fits.decoded);
  EXPECT_EQ(fits.code.handlers[0].start_pc, 2);
  EXPECT_EQ(fits.code.handlers[0].end_pc, 65534);
  EXPECT_EQ(fits.code.handlers[0].handler_pc, 65534);
}

// --- filter pipeline -------------------------------------------------------------

class CountingFilter : public CodeFilter {
 public:
  explicit CountingFilter(std::string tag, std::vector<std::string>* order)
      : tag_(std::move(tag)), order_(order) {}
  std::string name() const override { return tag_; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    order_->push_back(tag_);
    FilterOutcome outcome;
    outcome.checks_performed = 1;
    return outcome;
  }

 private:
  std::string tag_;
  std::vector<std::string>* order_;
};

class RenamingFilter : public CodeFilter {
 public:
  std::string name() const override { return "renamer"; }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) const override {
    FilterOutcome outcome;
    ClassBuilder cb("rw/Replaced", "java/lang/Object");
    outcome.replacement = cb.Build().value();
    return outcome;
  }
};

TEST(FilterPipelineTest, RunsFiltersInStackingOrder) {
  std::vector<std::string> order;
  MapClassEnv env;
  FilterPipeline pipeline;
  pipeline.Add(std::make_unique<CountingFilter>("first", &order));
  pipeline.Add(std::make_unique<CountingFilter>("second", &order));

  ClassBuilder cb("rw/P", "java/lang/Object");
  auto result = pipeline.Run(MustBuild(cb), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(result->checks_performed, 2u);
  EXPECT_EQ(result->filters_run.size(), 2u);
  EXPECT_FALSE(result->modified);
}

TEST(FilterPipelineTest, ReplacementClassFlowsThrough) {
  MapClassEnv env;
  FilterPipeline pipeline;
  pipeline.Add(std::make_unique<RenamingFilter>());
  ClassBuilder cb("rw/Original", "java/lang/Object");
  auto result = pipeline.Run(MustBuild(cb), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cls.name(), "rw/Replaced");
  EXPECT_TRUE(result->modified);
}

TEST(FilterPipelineTest, ParsesBytesOnce) {
  MapClassEnv env;
  FilterPipeline pipeline;
  ClassBuilder cb("rw/Bytes", "java/lang/Object");
  ClassFile cls = MustBuild(cb);
  auto result = pipeline.Run(MustWriteClassFile(cls), env);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cls.name(), "rw/Bytes");
}

}  // namespace
}  // namespace dvm
